package iavl

import (
	"fmt"

	"scmove/internal/trie"
)

// BuildSorted returns the tree holding the n entries entry(0), …,
// entry(n-1), which must come in strictly ascending key order with
// non-empty values (trie.ErrUnsorted otherwise). Keys and values are
// copied.
//
// The treap's priority is H(key), so its shape is a pure function of the
// key set: the max-heap on priorities whose in-order walk is the sorted
// keys. With the keys already sorted that shape is their Cartesian tree,
// which one pass builds with a stack holding the rightmost path: each new
// key pops the lower-priority nodes off the path, adopts the last one
// popped as its left child, and hangs itself as the right child of the
// node left on top. Every node is pushed and popped at most once, so the
// build is linear, where n calls to Set cost n·log n rotating inserts; it
// yields the same tree, and so the same root and proofs, as those calls.
// Only a collision of two keys' 32-byte priorities could make the two
// differ.
func BuildSorted(keyLen, n int, entry func(i int) (key, value []byte)) (*Tree, error) {
	t := New(keyLen)
	size, encSize := 0, 0
	var prev []byte
	for i := 0; i < n; i++ {
		key, value := entry(i)
		if len(key) != keyLen {
			return nil, fmt.Errorf("%w: entry %d: got %d want %d", trie.ErrKeyLength, i, len(key), keyLen)
		}
		if err := trie.CheckSorted(i, prev, key, value); err != nil {
			return nil, err
		}
		prev = key
		size += len(key) + len(value)
		encSize += encodedLen(len(key), len(value))
	}
	// One allocation each for the nodes, their keys and values, and their
	// encoding caches; every slice's capacity is capped so nothing appended
	// to it can reach its neighbour.
	nodes := make([]node, n)
	buf := make([]byte, size)
	encBuf := make([]byte, encSize)
	var spine []*node
	for i := range nodes {
		key, value := entry(i)
		nd := &nodes[i]
		nd.key = buf[:len(key):len(key)]
		copy(nd.key, key)
		buf = buf[len(key):]
		nd.value = buf[:len(value):len(value)]
		copy(nd.value, value)
		buf = buf[len(value):]
		l := encodedLen(len(key), len(value))
		nd.enc = encBuf[:0:l]
		encBuf = encBuf[l:]
		nd.prio = priority(key)
		var last *node
		for len(spine) > 0 && higher(nd.prio, spine[len(spine)-1].prio) {
			last = spine[len(spine)-1]
			spine = spine[:len(spine)-1]
		}
		nd.left = last
		if len(spine) > 0 {
			spine[len(spine)-1].right = nd
		}
		spine = append(spine, nd)
	}
	if len(spine) > 0 {
		t.root = spine[0]
	}
	t.count = n
	return t, nil
}
