package core

import (
	"testing"

	"scmove/internal/state"
	"scmove/internal/trie"
	"scmove/internal/types"
)

// FuzzVerifyMove2AccountProof mutates the account proof bytes of an
// otherwise valid Move2 payload: verification must never panic and must
// only ever accept the exact original proof.
func FuzzVerifyMove2AccountProof(f *testing.F) {
	src, err := state.NewDB(chainA, trie.KindMPT)
	if err != nil {
		f.Fatal(err)
	}
	contract := addr(0xF0)
	src.CreateContract(contract, []byte("fuzz code"))
	src.SetStorage(contract, word(1), word(2))
	src.SetLocation(contract, chainB)
	src.SetMoveNonce(contract, 1)
	src.Commit()
	payload, err := BuildMoveProof(src, contract, 1)
	if err != nil {
		f.Fatal(err)
	}
	hs := NewHeaderStore(paramsA(), paramsB())
	rootHeader := &types.Header{ChainID: chainA, Height: 1, StateRoot: src.Root()}
	if err := hs.Update(chainA, []*types.Header{rootHeader}, 1+paramsA().ConfirmationDepth); err != nil {
		f.Fatal(err)
	}
	original := append([]byte{}, payload.AccountProof...)

	f.Add(original)
	f.Add(original[:len(original)/2])
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02, 0x03})

	f.Fuzz(func(t *testing.T, proof []byte) {
		dst, err := state.NewDB(chainB, trie.KindIAVL)
		if err != nil {
			t.Fatal(err)
		}
		p := *payload
		p.AccountProof = proof
		v, err := VerifyMove2(chainB, dst, hs, &p)
		if err != nil {
			return
		}
		// Only the genuine proof verifies, and then the account is exact.
		if string(proof) != string(original) {
			t.Fatalf("mutated proof accepted (%d bytes)", len(proof))
		}
		if v.Account.MoveNonce != 1 || v.Account.Location != chainB {
			t.Fatalf("verified account mismatch: %+v", v.Account)
		}
	})
}

// FuzzVerifyMove2Storage mutates one storage entry: completeness must
// reject any change.
func FuzzVerifyMove2Storage(f *testing.F) {
	src, err := state.NewDB(chainA, trie.KindMPT)
	if err != nil {
		f.Fatal(err)
	}
	contract := addr(0xF1)
	src.CreateContract(contract, []byte("code"))
	for i := byte(1); i <= 4; i++ {
		src.SetStorage(contract, word(i), word(i+10))
	}
	src.SetLocation(contract, chainB)
	src.SetMoveNonce(contract, 1)
	src.Commit()
	payload, err := BuildMoveProof(src, contract, 1)
	if err != nil {
		f.Fatal(err)
	}
	hs := NewHeaderStore(paramsA(), paramsB())
	rootHeader := &types.Header{ChainID: chainA, Height: 1, StateRoot: src.Root()}
	if err := hs.Update(chainA, []*types.Header{rootHeader}, 1+paramsA().ConfirmationDepth); err != nil {
		f.Fatal(err)
	}

	f.Add(uint8(0), uint8(0), uint8(0))  // identity
	f.Add(uint8(1), uint8(31), uint8(1)) // flip value byte
	f.Add(uint8(2), uint8(0), uint8(9))  // flip key byte

	f.Fuzz(func(t *testing.T, entry, pos, delta uint8) {
		dst, err := state.NewDB(chainB, trie.KindIAVL)
		if err != nil {
			t.Fatal(err)
		}
		p := *payload
		p.Storage = append([]types.StorageEntry{}, payload.Storage...)
		mutated := false
		if len(p.Storage) > 0 && delta != 0 {
			i := int(entry) % len(p.Storage)
			e := p.Storage[i]
			if pos%2 == 0 {
				e.Key[pos%32] ^= delta
			} else {
				e.Value[pos%32] ^= delta
			}
			if e != payload.Storage[i] {
				mutated = true
			}
			p.Storage[i] = e
		}
		_, err = VerifyMove2(chainB, dst, hs, &p)
		if mutated && err == nil {
			t.Fatalf("mutated storage accepted (entry %d pos %d delta %d)", entry, pos, delta)
		}
		if !mutated && err != nil {
			t.Fatalf("unmutated payload rejected: %v", err)
		}
	})
}
