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

// storagePayload builds a Move2 payload for a four-slot contract locked on
// a source chain with the given params and makes hs trust its root.
func storagePayload(f *testing.F, hs *HeaderStore, params ChainParams) *types.Move2Payload {
	src, err := state.NewDB(params.ID, params.TreeKind)
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
	publish(f, hs, params, 1, src.Root())
	return payload
}

// FuzzVerifyMove2Storage mutates the storage entries of a payload from an
// MPT or an IAVL source: flipping a byte of one entry (op%3 == 0), swapping
// it with the next (op%3 == 1) or duplicating it (op%3 == 2). Completeness
// must reject any change; swaps and duplicates rebuild the same tree, so
// only the strictly-ascending rule catches them.
func FuzzVerifyMove2Storage(f *testing.F) {
	hs := NewHeaderStore(paramsA(), paramsB(), paramsC())
	payloads := map[bool]*types.Move2Payload{
		false: storagePayload(f, hs, paramsA()),
		true:  storagePayload(f, hs, paramsC()),
	}

	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), false)  // identity
	f.Add(uint8(1), uint8(31), uint8(1), uint8(0), false) // flip value byte
	f.Add(uint8(2), uint8(0), uint8(9), uint8(0), false)  // flip key byte
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), true)   // identity, IAVL source
	f.Add(uint8(3), uint8(7), uint8(2), uint8(0), true)   // flip value byte, IAVL source
	f.Add(uint8(1), uint8(0), uint8(0), uint8(1), false)  // swap
	f.Add(uint8(3), uint8(0), uint8(0), uint8(1), true)   // swap last and first
	f.Add(uint8(2), uint8(0), uint8(0), uint8(2), true)   // duplicate

	f.Fuzz(func(t *testing.T, entry, pos, delta, op uint8, iavlSource bool) {
		dst, err := state.NewDB(chainB, trie.KindIAVL)
		if err != nil {
			t.Fatal(err)
		}
		payload := payloads[iavlSource]
		p := *payload
		p.Storage = append([]types.StorageEntry{}, payload.Storage...)
		mutated := false
		if n := len(p.Storage); n > 0 {
			i := int(entry) % n
			switch op % 3 {
			case 0:
				if delta == 0 {
					break
				}
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
			case 1:
				if j := (i + 1) % n; j != i {
					p.Storage[i], p.Storage[j] = p.Storage[j], p.Storage[i]
					mutated = true
				}
			case 2:
				p.Storage = append(p.Storage[:i+1], p.Storage[i:]...)
				mutated = true
			}
		}
		_, err = VerifyMove2(chainB, dst, hs, &p)
		if mutated && err == nil {
			t.Fatalf("mutated storage accepted (entry %d pos %d delta %d op %d iavl %v)",
				entry, pos, delta, op, iavlSource)
		}
		if !mutated && err != nil {
			t.Fatalf("unmutated payload rejected: %v", err)
		}
	})
}
