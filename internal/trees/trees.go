// Package trees constructs and verifies the concrete state-tree
// implementations by kind. It exists so that packages which need "a tree of
// the chain's configured kind" (state, core) do not depend on the individual
// implementations.
package trees

import (
	"fmt"

	"scmove/internal/hashing"
	"scmove/internal/iavl"
	"scmove/internal/mpt"
	"scmove/internal/trie"
)

// New returns an empty tree of the given kind with fixed keyLen-byte keys.
func New(kind trie.Kind, keyLen int) (trie.Tree, error) {
	switch kind {
	case trie.KindMPT:
		return mpt.New(keyLen), nil
	case trie.KindIAVL:
		return iavl.New(keyLen), nil
	default:
		return nil, fmt.Errorf("trees: unknown tree kind %d", kind)
	}
}

// MustNew is New for statically-known kinds; it panics on unknown kinds.
func MustNew(kind trie.Kind, keyLen int) trie.Tree {
	t, err := New(kind, keyLen)
	if err != nil {
		panic(err)
	}
	return t
}

// BuildSorted returns a tree of the given kind holding the n entries
// entry(0), …, entry(n-1), which must come in strictly ascending key order
// with non-empty values (trie.ErrUnsorted otherwise). IAVL builds in one
// linear pass (iavl.BuildSorted); MPT inserts the entries one by one.
func BuildSorted(kind trie.Kind, keyLen, n int, entry func(i int) (key, value []byte)) (trie.Tree, error) {
	if kind == trie.KindIAVL {
		return iavl.BuildSorted(keyLen, n, entry)
	}
	t, err := New(kind, keyLen)
	if err != nil {
		return nil, err
	}
	var prev []byte
	for i := 0; i < n; i++ {
		key, value := entry(i)
		if err := trie.CheckSorted(i, prev, key, value); err != nil {
			return nil, err
		}
		if err := t.Set(key, value); err != nil {
			return nil, err
		}
		prev = key
	}
	return t, nil
}

// KindOf reports the kind of a tree built by New (0 for any other tree).
func KindOf(t trie.Tree) trie.Kind {
	switch t.(type) {
	case *mpt.Tree:
		return trie.KindMPT
	case *iavl.Tree:
		return trie.KindIAVL
	default:
		return 0
	}
}

// VerifyProof verifies an encoded membership proof produced by a tree of the
// given kind against root, returning the proven entry.
func VerifyProof(kind trie.Kind, root hashing.Hash, proof []byte) (trie.ProvenEntry, error) {
	switch kind {
	case trie.KindMPT:
		return mpt.VerifyProof(root, proof)
	case trie.KindIAVL:
		return iavl.VerifyProof(root, proof)
	default:
		return trie.ProvenEntry{}, fmt.Errorf("trees: unknown tree kind %d", kind)
	}
}
