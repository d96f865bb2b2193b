// Package trie defines the authenticated key-value tree abstraction shared
// by every blockchain in the system, together with the Merkle-proof contract
// that the Move protocol relies on (paper §II, Fig. 1).
//
// Two implementations exist: internal/mpt, a hex-nibble Merkle Patricia trie
// standing in for Ethereum's state trie, and internal/iavl, a canonical
// Merkle search tree standing in for Tendermint's IAVL tree. Both are
// *canonical*: the root hash is a pure function of the key-value contents,
// independent of the order of insertions and deletions. Move2 depends on
// this property for its completeness check — the target chain rebuilds the
// contract's storage tree from the proof payload and compares roots, which
// detects any omitted or injected storage entry (§III-E).
package trie

import (
	"bytes"
	"errors"
	"fmt"

	"scmove/internal/hashing"
)

// Kind identifies a state-tree implementation. Chains advertise their kind
// so that peers know how to verify proofs against their state roots.
type Kind uint8

// Supported tree kinds.
const (
	// KindMPT is the hex-nibble Merkle Patricia trie (Ethereum-like chains).
	KindMPT Kind = iota + 1
	// KindIAVL is the canonical Merkle search tree (Burrow-like chains).
	KindIAVL
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindMPT:
		return "mpt"
	case KindIAVL:
		return "iavl"
	default:
		return "unknown"
	}
}

// Errors shared by tree implementations.
var (
	// ErrInvalidProof reports a proof that fails hash verification or is
	// structurally malformed.
	ErrInvalidProof = errors.New("trie: invalid merkle proof")
	// ErrKeyLength reports a key whose length differs from the tree's fixed
	// key length. Fixed-length keys keep both tree shapes canonical.
	ErrKeyLength = errors.New("trie: key length does not match tree key length")
	// ErrUnsorted reports a sorted build whose entries are not in strictly
	// ascending key order, or that carries an empty value.
	ErrUnsorted = errors.New("trie: entries not strictly ascending with non-empty values")
)

// CheckSorted reports whether an entry may follow prev (nil for the first
// entry) in a sorted build: its key must be strictly above prev and its
// value non-empty. i is the entry's index, for the error message.
func CheckSorted(i int, prev, key, value []byte) error {
	if prev != nil && bytes.Compare(prev, key) >= 0 {
		return fmt.Errorf("%w: entry %d key %x does not follow %x", ErrUnsorted, i, key, prev)
	}
	if len(value) == 0 {
		return fmt.Errorf("%w: entry %d has an empty value", ErrUnsorted, i)
	}
	return nil
}

// Tree is an authenticated key-value store with membership proofs.
//
// All keys in one tree must have the same length (set at construction).
// Values must be non-empty; Delete removes a key entirely.
type Tree interface {
	// Get returns the value stored under key and whether it exists.
	Get(key []byte) ([]byte, bool)
	// Set stores value under key, replacing any previous value. It returns
	// ErrKeyLength if the key has the wrong length and panics if value is
	// empty (an invariant violation: use Delete to remove keys).
	Set(key, value []byte) error
	// Delete removes key. Deleting an absent key is a no-op.
	Delete(key []byte) error
	// RootHash returns the Merkle root commitment over the full contents.
	RootHash() hashing.Hash
	// Prove returns an encoded membership proof for key, or ErrInvalidProof
	// if the key is absent.
	Prove(key []byte) ([]byte, error)
	// Iterate visits all entries in ascending key order until fn returns
	// false. The callback must not mutate the tree.
	Iterate(fn func(key, value []byte) bool)
	// Len returns the number of entries.
	Len() int
}

// Runner schedules independent closures onto a bounded set of workers; Go
// may block for backpressure but must eventually run the closure.
// keys.Pool satisfies it, so state commits share the crypto worker pool
// instead of spawning their own.
type Runner interface {
	Go(func())
}

// ParallelHasher is implemented by trees that can fan the hashing of
// disjoint dirty subtrees out to a Runner. HashParallel(nil) and
// HashParallel(r) must both return exactly RootHash()'s value — both tree
// kinds here are canonical, and a node hash is a pure function of subtree
// contents, so where it is computed cannot change what it is.
type ParallelHasher interface {
	HashParallel(r Runner) hashing.Hash
}

// ProvenEntry is the result of verifying a membership proof: the key/value
// pair the proof commits to under the given root.
type ProvenEntry struct {
	Key   []byte
	Value []byte
}
