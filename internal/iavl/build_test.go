package iavl

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"scmove/internal/trie"
)

// sortedEntries returns n distinct random 32-byte keys in ascending order,
// each with a random non-empty value.
func sortedEntries(rng *rand.Rand, n int) (keys, values [][]byte) {
	seen := make(map[string]bool, n)
	for len(keys) < n {
		k := make([]byte, 32)
		rng.Read(k)
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	for range keys {
		v := make([]byte, 1+rng.Intn(40))
		rng.Read(v)
		values = append(values, v)
	}
	return keys, values
}

func buildFrom(keys, values [][]byte) (*Tree, error) {
	return BuildSorted(32, len(keys), func(i int) ([]byte, []byte) { return keys[i], values[i] })
}

// sameShape reports whether two subtrees have the same keys, values and
// links.
func sameShape(a, b *node) bool {
	if a == nil || b == nil {
		return a == b
	}
	return bytes.Equal(a.key, b.key) && bytes.Equal(a.value, b.value) && a.prio == b.prio &&
		sameShape(a.left, b.left) && sameShape(a.right, b.right)
}

func entriesOf(t *Tree) [][2][]byte {
	var out [][2][]byte
	t.Iterate(func(k, v []byte) bool {
		out = append(out, [2][]byte{k, v})
		return true
	})
	return out
}

// TestBuildSortedMatchesSet checks that the one-pass build yields the tree
// n calls to Set yield: same shape, root, length, iteration, proofs, and
// the same trees after further Set and Delete calls. It also checks that
// the build rejects input that is not strictly ascending with non-empty
// values.
func TestBuildSortedMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	t.Run("rejects", func(t *testing.T) { checkBuildSortedRejects(t, rng) })
	sizes := []int{0, 1, 2, 3, 17, 256, 2000}
	for i := 0; i < 8; i++ {
		sizes = append(sizes, rng.Intn(2001))
	}
	for _, n := range sizes {
		keys, values := sortedEntries(rng, n)
		built, err := buildFrom(keys, values)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		ref := New(32)
		for _, i := range rng.Perm(n) {
			if err := ref.Set(keys[i], values[i]); err != nil {
				t.Fatal(err)
			}
		}
		if !sameShape(built.root, ref.root) {
			t.Fatalf("n=%d: built tree has another shape than the Set-built one", n)
		}
		checkInvariants(t, built.root, nil, nil)
		if built.Len() != n || ref.Len() != n {
			t.Fatalf("n=%d: Len %d, Set-built %d", n, built.Len(), ref.Len())
		}
		root := ref.RootHash()
		if got := built.HashParallel(nil); got != root {
			t.Fatalf("n=%d: root %s, Set-built %s", n, got, root)
		}
		be, re := entriesOf(built), entriesOf(ref)
		if len(be) != len(re) {
			t.Fatalf("n=%d: iterated %d entries, Set-built %d", n, len(be), len(re))
		}
		for i := range be {
			if !bytes.Equal(be[i][0], re[i][0]) || !bytes.Equal(be[i][1], re[i][1]) {
				t.Fatalf("n=%d: entry %d differs", n, i)
			}
		}
		for i, k := range keys {
			bp, err := built.Prove(k)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := ref.Prove(k)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bp, rp) {
				t.Fatalf("n=%d: proof of key %d differs", n, i)
			}
			e, err := VerifyProof(root, bp)
			if err != nil || !bytes.Equal(e.Key, k) || !bytes.Equal(e.Value, values[i]) {
				t.Fatalf("n=%d: proof of key %d does not verify: %v", n, i, err)
			}
		}
		// Mutate both trees alike: overwrite, insert and delete.
		for op := 0; op < 300 && n > 0; op++ {
			k := keys[rng.Intn(n)]
			switch rng.Intn(3) {
			case 0:
				v := []byte{byte(op), 7}
				_ = built.Set(k, v)
				_ = ref.Set(k, v)
			case 1:
				fresh := make([]byte, 32)
				rng.Read(fresh)
				_ = built.Set(fresh, []byte{1})
				_ = ref.Set(fresh, []byte{1})
			default:
				_ = built.Delete(k)
				_ = ref.Delete(k)
			}
		}
		if built.RootHash() != ref.RootHash() || built.Len() != ref.Len() || !sameShape(built.root, ref.root) {
			t.Fatalf("n=%d: trees diverge after Set/Delete", n)
		}
	}
}

func checkBuildSortedRejects(t *testing.T, rng *rand.Rand) {
	keys, values := sortedEntries(rng, 5)
	swapped := append([][]byte{}, keys...)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	dupKeys := append(append([][]byte{}, keys[:3]...), keys[2:]...)
	dupValues := append(append([][]byte{}, values[:3]...), values[2:]...)
	emptyValues := append([][]byte{}, values...)
	emptyValues[3] = nil
	for _, tc := range []struct {
		name         string
		keys, values [][]byte
		want         error
	}{
		{"unsorted", swapped, values, trie.ErrUnsorted},
		{"duplicate", dupKeys, dupValues, trie.ErrUnsorted},
		{"empty value", keys, emptyValues, trie.ErrUnsorted},
		{"short key", append([][]byte{keys[0][:31]}, keys[1:]...), values, trie.ErrKeyLength},
	} {
		if _, err := buildFrom(tc.keys, tc.values); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}
