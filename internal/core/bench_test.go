package core

import (
	"fmt"
	"testing"

	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/state"
	"scmove/internal/trie"
)

// BenchmarkMove2Import times the target side of Move2 for a Store-N
// contract between two IAVL chains: verify the payload, import the
// contract and commit. Building the fresh target state is excluded.
func BenchmarkMove2Import(b *testing.B) {
	for _, slots := range []int{100, 1500} {
		b.Run(fmt.Sprintf("store-%d", slots), func(b *testing.B) {
			src, err := state.NewDB(paramsC().ID, trie.KindIAVL)
			if err != nil {
				b.Fatal(err)
			}
			contract := addr(0xb0)
			src.CreateContract(contract, []byte("store code"))
			for i := 0; i < slots; i++ {
				var key, val evm.Word
				key[0] = 0x01
				key[30], key[31] = byte(i>>8), byte(i)
				h := hashing.Sum(key[:])
				copy(val[:], h[:])
				src.SetStorage(contract, key, val)
			}
			src.SetLocation(contract, chainB)
			src.SetMoveNonce(contract, 1)
			src.Commit()
			payload, err := BuildMoveProof(src, contract, 1)
			if err != nil {
				b.Fatal(err)
			}
			hs := NewHeaderStore(paramsC(), paramsB())
			publish(b, hs, paramsC(), 1, src.Root())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dst, err := state.NewDB(chainB, trie.KindIAVL)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				v, err := VerifyMove2(chainB, dst, hs, payload)
				if err != nil {
					b.Fatal(err)
				}
				ApplyMove2(dst, payload, v)
				dst.Commit()
			}
		})
	}
}
