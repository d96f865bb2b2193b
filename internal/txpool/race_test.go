package txpool

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/types"
)

// RPC ingress calls Add from arbitrary goroutines while the consensus
// driver drains the pool through NextBatch and Remove. This test pins the
// concurrency contract under -race (`make race`): 8 goroutines hammer Add
// (including idempotent resubmissions) while a drainer repeatedly selects
// and removes, and at the end every transaction was selected exactly once
// — nothing lost, nothing double-selected, no map corruption.
//
// Selected-exactly-once holds despite resubmission races: before a tx's
// first selection a resubmit is rejected as a duplicate, and after it the
// drainer has advanced the sender's committed nonce, so a resubmit that
// lands after Remove is re-admitted but then evicted as stale — never
// re-selected.
func TestConcurrentAddWhileNextBatchDrains(t *testing.T) {
	const (
		goroutines = 8
		perSender  = 64
	)
	p := New(1, goroutines*perSender+16)

	// Pre-sign outside the race so worker goroutines do no shared signing.
	txs := make([][]*types.Transaction, goroutines)
	for g := 0; g < goroutines; g++ {
		kp := keys.Deterministic(uint64(900 + g))
		txs[g] = make([]*types.Transaction, perSender)
		for n := 0; n < perSender; n++ {
			txs[g][n] = signedTx(t, kp, uint64(n))
		}
	}

	var (
		done atomic.Bool
		wg   sync.WaitGroup
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(batch []*types.Transaction) {
			defer wg.Done()
			for _, tx := range batch {
				if _, err := p.Add(tx); err != nil {
					t.Errorf("Add: %v", err)
					return
				}
				// Idempotent resubmission: duplicate while pending, or
				// re-admitted after commit (then evicted as stale).
				if _, err := p.Add(tx); err != nil && !errors.Is(err, ErrDuplicate) {
					t.Errorf("resubmit: %v", err)
					return
				}
			}
		}(txs[g])
	}

	// Drainer: committed nonces track what has been "executed", exactly as
	// the chain advances account nonces block by block.
	committed := make(map[hashing.Address]uint64)
	nonceOf := func(a hashing.Address) uint64 { return committed[a] }
	selected := make(map[hashing.Hash]int)
	go func() {
		defer done.Store(true)
		wg.Wait()
	}()
	drain := func() {
		batch := p.NextBatch(32, nonceOf)
		for _, tx := range batch {
			sender, err := tx.Sender()
			if err != nil {
				t.Errorf("sender: %v", err)
				return
			}
			committed[sender] = tx.Nonce + 1
			selected[tx.ID()]++
			p.Remove(tx.ID())
		}
	}
	for !done.Load() {
		drain()
	}
	// Workers are done: whatever is left either selects or evicts on each
	// pass, so the pool must strictly shrink to empty.
	for p.Len() > 0 {
		before := p.Len()
		drain()
		if p.Len() >= before {
			t.Fatalf("pool stuck with %d pending", before)
		}
	}

	for g := 0; g < goroutines; g++ {
		for _, tx := range txs[g] {
			if n := selected[tx.ID()]; n != 1 {
				t.Errorf("tx sender %d nonce %d selected %d times, want 1", g, tx.Nonce, n)
			}
		}
	}
	if len(selected) != goroutines*perSender {
		t.Errorf("selected %d distinct txs, want %d", len(selected), goroutines*perSender)
	}
}

// Two goroutines racing the same transaction object must resolve to
// exactly one admission: the post-crypto re-check under the lock prevents
// a double insert even though the duplicate pre-check runs unlocked.
func TestConcurrentSameTxSingleAdmission(t *testing.T) {
	for round := 0; round < 32; round++ {
		p := New(1, 16)
		tx := signedTx(t, keys.Deterministic(uint64(800+round)), 0)
		var ok, dup atomic.Int32
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				switch _, err := p.Add(tx); {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, ErrDuplicate):
					dup.Add(1)
				default:
					t.Errorf("Add: %v", err)
				}
			}()
		}
		wg.Wait()
		if ok.Load() != 1 || dup.Load() != 3 {
			t.Fatalf("round %d: %d admissions, %d duplicates; want 1/3", round, ok.Load(), dup.Load())
		}
		if p.Len() != 1 {
			t.Fatalf("round %d: pool len %d, want 1", round, p.Len())
		}
	}
}
