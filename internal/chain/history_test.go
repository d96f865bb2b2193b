package chain

import (
	"bytes"
	"testing"

	"scmove/internal/core"
	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/state"
	"scmove/internal/state/backend"
	"scmove/internal/types"
	"scmove/internal/u256"
)

// TestMove2ProofAtHistoricalRoot locks a contract via Move1, buries the
// Move1 block under later blocks (so the live state root has moved on), and
// then rebuilds the Move2 payload from the retained-root window. The
// historical payload must be byte-identical to the one built when the Move1
// root was the head, and must still be accepted by the target chain. Runs
// against both the memory and the file state backend — the file run
// exercises the reverse-diff overlay over the log-structured store.
func TestMove2ProofAtHistoricalRoot(t *testing.T) {
	t.Run("memory", func(t *testing.T) {
		testMove2ProofAt(t, state.Options{})
	})
	t.Run("file", func(t *testing.T) {
		testMove2ProofAt(t, state.Options{Backend: backend.KindFile, Dir: t.TempDir()})
	})
}

func testMove2ProofAt(t *testing.T, srcState state.Options) {
	kp := keys.Deterministic(1)
	cfg1, cfg2 := ethConfig(1), burrowConfig(2)
	cfg1.State = srcState
	src := newChain(t, cfg1, []core.ChainParams{cfg2.Params()}, kp)
	defer src.Close()
	dst := newChain(t, cfg2, []core.ChainParams{cfg1.Params()}, kp)

	contract := hashing.AddressFromBytes([]byte{0xcc})
	src.StateDB().CreateContract(contract, movableCode())
	src.StateDB().SetStorage(contract, [32]byte{31: 1}, [32]byte{31: 42})
	src.StateDB().Commit()

	move1 := signedCall(t, kp, 1, 0, contract, core.MoveToInput(2), 0)
	if _, err := src.SubmitTx(move1); err != nil {
		t.Fatal(err)
	}
	block1, receipts := src.ApplyBlock(src.ProposeBatch(), 10, ProposerAddress(1, 0))
	if !receipts[0].Succeeded() {
		t.Fatalf("move1 failed: %s", receipts[0].Err)
	}

	// The reference payload, built while block1's root is the head.
	head, err := core.BuildMoveProof(src.StateDB(), contract, block1.Header.Height)
	if err != nil {
		t.Fatal(err)
	}

	// Bury the Move1 root under the confirmation depth's worth of blocks.
	// Other accounts keep changing (fees, proposer credit), so the head
	// root diverges from block1's — the historical path has real work to do.
	for i := 0; i < int(cfg1.ConfirmationDepth); i++ {
		pay := signedCall(t, kp, 1, uint64(1+i), hashing.AddressFromBytes([]byte{0xee}), nil, 1000)
		if _, err := src.SubmitTx(pay); err != nil {
			t.Fatal(err)
		}
		src.ApplyBlock(src.ProposeBatch(), uint64(20+i), ProposerAddress(1, 0))
	}
	r1, _ := src.RootAt(block1.Header.Height)
	if headRoot, _ := src.RootAt(src.Head().Height); headRoot == r1 {
		t.Fatal("test needs the head root to have moved past the proof root")
	}

	hist, err := src.Move2ProofAt(contract, block1.Header.Height)
	if err != nil {
		t.Fatalf("Move2ProofAt: %v", err)
	}
	if !bytes.Equal(types.EncodeMove2Payload(hist), types.EncodeMove2Payload(head)) {
		t.Fatalf("historical payload differs from the one built at head:\n head %x\n hist %x",
			types.EncodeMove2Payload(head), types.EncodeMove2Payload(hist))
	}

	// A proof at a never-executed height must fail cleanly.
	if _, err := src.Move2ProofAt(contract, src.Head().Height+100); err == nil {
		t.Fatal("Move2ProofAt accepted an unknown height")
	}

	// The historically rebuilt payload must clear full Move2 verification
	// on the target chain.
	var headers []*types.Header
	for h := uint64(0); h <= src.Head().Height; h++ {
		hdr, _ := src.HeaderAt(h)
		headers = append(headers, hdr)
	}
	if err := dst.Headers().Update(1, headers, src.Head().Height); err != nil {
		t.Fatal(err)
	}
	move2 := &types.Transaction{
		ChainID:  2,
		Nonce:    0,
		Kind:     types.TxMove2,
		GasLimit: 10_000_000,
		GasPrice: u256.FromUint64(2),
		Move2:    hist,
	}
	if _, err := move2.Sign(kp); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.SubmitTx(move2); err != nil {
		t.Fatal(err)
	}
	_, receipts = dst.ApplyBlock(dst.ProposeBatch(), 200, ProposerAddress(2, 0))
	if !receipts[0].Succeeded() {
		t.Fatalf("move2 with historical proof failed: %s", receipts[0].Err)
	}
	if dst.StateDB().GetLocation(contract) != 2 {
		t.Fatal("contract must now live on chain 2")
	}
}
