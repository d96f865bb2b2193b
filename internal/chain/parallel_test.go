package chain

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/types"
	"scmove/internal/u256"
)

// forgedFromTx signs a transaction with kp, then rewrites From to another
// address: the signature is genuine but no longer matches the claimed
// sender (and, since From is covered by the id, no longer the content).
func forgedFromTx(t *testing.T, kp *keys.KeyPair, chainID hashing.ChainID) *types.Transaction {
	t.Helper()
	tx := signedCall(t, kp, chainID, 0, hashing.AddressFromBytes([]byte{0x55}), nil, 100)
	forged, err := types.DecodeTransaction(tx.Encode())
	if err != nil {
		t.Fatal(err)
	}
	forged.From = hashing.AddressFromBytes([]byte{0xAA})
	return forged
}

func TestForgedFromRejectedAtAdmissionAndApply(t *testing.T) {
	kp := keys.Deterministic(1)
	victim := hashing.AddressFromBytes([]byte{0xAA})
	c := newChain(t, ethConfig(1), nil, kp)
	c.StateDB().AddBalance(victim, u256.FromUint64(fund))
	c.StateDB().Commit()

	forged := forgedFromTx(t, kp, 1)

	// Layer 1: the pool must refuse it.
	if _, err := c.SubmitTx(forged); !errors.Is(err, types.ErrBadTxSignature) {
		t.Fatalf("admission error = %v, want ErrBadTxSignature", err)
	}
	if c.PendingTxs() != 0 {
		t.Fatal("forged tx must not be pending")
	}

	// Layer 2: a proposer that bypasses the pool (byzantine, or a decoded
	// block from a peer) must not execute it either — the victim's balance
	// cannot move.
	_, receipts := c.ApplyBlock([]*types.Transaction{forged}, 100, ProposerAddress(1, 0))
	if len(receipts) != 1 || receipts[0].Succeeded() {
		t.Fatalf("receipts = %+v", receipts)
	}
	if receipts[0].GasUsed != 0 {
		t.Fatal("unauthenticated tx must not charge gas")
	}
	if got := c.StateDB().GetBalance(victim); !got.Eq(u256.FromUint64(fund)) {
		t.Fatalf("victim balance = %s, forged From must not spend it", got)
	}
}

func TestAddBatchMatchesSequentialAdd(t *testing.T) {
	kpA := keys.Deterministic(1)
	kpB := keys.Deterministic(2)
	mk := func(c *Chain) []*types.Transaction {
		txs := []*types.Transaction{
			signedCall(t, kpA, 1, 0, hashing.AddressFromBytes([]byte{1}), nil, 1),
			signedCall(t, kpB, 1, 0, hashing.AddressFromBytes([]byte{2}), nil, 2),
			signedCall(t, kpA, 1, 1, hashing.AddressFromBytes([]byte{3}), nil, 3),
		}
		txs = append(txs, forgedFromTx(t, kpA, 1)) // must be rejected
		txs = append(txs, txs[0])                  // duplicate
		return txs
	}

	serial := newChain(t, ethConfig(1), nil, kpA)
	serial.StateDB().AddBalance(kpB.Address(), u256.FromUint64(fund))
	serial.StateDB().Commit()
	var serialErrs []bool
	for _, tx := range mk(serial) {
		_, err := serial.SubmitTx(tx)
		serialErrs = append(serialErrs, err != nil)
	}

	batch := newChain(t, ethConfig(1), nil, kpA)
	batch.StateDB().AddBalance(kpB.Address(), u256.FromUint64(fund))
	batch.StateDB().Commit()
	var batchErrs []bool
	for _, err := range batch.SubmitTxs(mk(batch)) {
		batchErrs = append(batchErrs, err != nil)
	}

	if !reflect.DeepEqual(serialErrs, batchErrs) {
		t.Fatalf("batch admission %v, serial %v", batchErrs, serialErrs)
	}
	if serial.PendingTxs() != batch.PendingTxs() {
		t.Fatalf("pending %d vs %d", batch.PendingTxs(), serial.PendingTxs())
	}
}

// TestApplyBlockParallelDeterminism commits the same traffic serially
// (GOMAXPROCS=1, every parallel path falls back inline) and with parallel
// pre-recovery and commit hashing, and requires bit-identical headers,
// roots, and receipts.
func TestApplyBlockParallelDeterminism(t *testing.T) {
	run := func(procs int) (roots []hashing.Hash, headers []hashing.Hash, receipts []*types.Receipt) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		kps := []*keys.KeyPair{keys.Deterministic(1), keys.Deterministic(2), keys.Deterministic(3)}
		c := newChain(t, ethConfig(1), nil, kps[0])
		for _, kp := range kps[1:] {
			c.StateDB().AddBalance(kp.Address(), u256.FromUint64(fund))
		}
		c.StateDB().Commit()
		for block := 0; block < 3; block++ {
			var txs []*types.Transaction
			for i, kp := range kps {
				tx := signedCall(t, kp, 1, uint64(block), hashing.AddressFromBytes([]byte{byte(10 + i)}), nil, uint64(block*10+i+1))
				// Decode to strip memos, as consensus-delivered blocks do.
				dec, err := types.DecodeTransaction(tx.Encode())
				if err != nil {
					t.Fatal(err)
				}
				txs = append(txs, dec)
			}
			b, recs := c.ApplyBlock(txs, uint64(100+block), ProposerAddress(1, 0))
			root, _ := c.RootAt(b.Header.Height)
			roots = append(roots, root)
			headers = append(headers, b.Header.Hash())
			receipts = append(receipts, recs...)
		}
		return
	}

	wantRoots, wantHeaders, wantRecs := run(1)
	for _, procs := range []int{2, runtime.NumCPU()} {
		roots, headers, recs := run(procs)
		if !reflect.DeepEqual(roots, wantRoots) {
			t.Fatalf("GOMAXPROCS=%d: state roots diverge", procs)
		}
		if !reflect.DeepEqual(headers, wantHeaders) {
			t.Fatalf("GOMAXPROCS=%d: header hashes diverge", procs)
		}
		if !reflect.DeepEqual(recs, wantRecs) {
			t.Fatalf("GOMAXPROCS=%d: receipts diverge", procs)
		}
	}
}

// TestApplyBlockRejectsTxEditedAfterSigning admits a signed transaction,
// then edits its value in place: the block must fail it as unsigned,
// charge nothing, and key the receipt by the edited content's id.
func TestApplyBlockRejectsTxEditedAfterSigning(t *testing.T) {
	kp := keys.Deterministic(1)
	c := newChain(t, ethConfig(1), nil, kp)
	tx := signedCall(t, kp, 1, 0, hashing.AddressFromBytes([]byte{0x55}), nil, 100)
	if _, err := c.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	tx.Value = u256.FromUint64(5000)
	fresh, err := types.DecodeTransaction(tx.Encode())
	if err != nil {
		t.Fatal(err)
	}
	_, receipts := c.ApplyBlock([]*types.Transaction{tx}, 100, ProposerAddress(1, 0))
	rec := receipts[0]
	if rec.Succeeded() || rec.GasUsed != 0 || !strings.Contains(rec.Err, types.ErrBadTxSignature.Error()) {
		t.Fatalf("edited tx: receipt %+v, want a failed invalid-signature receipt", rec)
	}
	if rec.TxID != fresh.ID() {
		t.Fatalf("receipt id %s, want the edited content's %s", rec.TxID, fresh.ID())
	}
	if got := c.StateDB().GetBalance(kp.Address()); !got.Eq(u256.FromUint64(fund)) {
		t.Fatalf("sender balance = %s, the edited tx must not run", got)
	}
}
