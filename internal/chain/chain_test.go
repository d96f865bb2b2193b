package chain

import (
	"strings"
	"testing"

	"scmove/internal/core"
	"scmove/internal/evm"
	"scmove/internal/evm/asm"
	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/state"
	"scmove/internal/trie"
	"scmove/internal/types"
	"scmove/internal/u256"
)

const fund = 1_000_000_000_000

func ethConfig(id hashing.ChainID) Config {
	return Config{
		ChainID:           id,
		TreeKind:          trie.KindMPT,
		Schedule:          evm.EthereumSchedule(),
		BlockGasLimit:     30_000_000,
		MaxBlockTxs:       200,
		ConfirmationDepth: 6,
		PoolLimit:         10_000,
	}
}

func burrowConfig(id hashing.ChainID) Config {
	return Config{
		ChainID:           id,
		TreeKind:          trie.KindIAVL,
		Schedule:          evm.BurrowSchedule(),
		BlockGasLimit:     30_000_000,
		MaxBlockTxs:       200,
		LaggingStateRoot:  true,
		ConfirmationDepth: 2,
		PoolLimit:         10_000,
	}
}

func newChain(t *testing.T, cfg Config, peers []core.ChainParams, kp *keys.KeyPair) *Chain {
	t.Helper()
	hs := core.NewHeaderStore(peers...)
	c, err := New(cfg, hs, func(db *state.DB) {
		db.AddBalance(kp.Address(), u256.FromUint64(fund))
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func signedCall(t *testing.T, kp *keys.KeyPair, chainID hashing.ChainID, nonce uint64,
	to hashing.Address, data []byte, value uint64) *types.Transaction {
	t.Helper()
	tx := &types.Transaction{
		ChainID:  chainID,
		Nonce:    nonce,
		Kind:     types.TxCall,
		To:       to,
		Value:    u256.FromUint64(value),
		GasLimit: 1_000_000,
		GasPrice: u256.FromUint64(2),
		Data:     data,
	}
	if _, err := tx.Sign(kp); err != nil {
		t.Fatal(err)
	}
	return tx
}

func TestTransferTxMovesValueAndFees(t *testing.T) {
	kp := keys.Deterministic(1)
	c := newChain(t, ethConfig(1), nil, kp)
	to := hashing.AddressFromBytes([]byte{0x77})
	proposer := ProposerAddress(1, 0)

	tx := signedCall(t, kp, 1, 0, to, nil, 500)
	if _, err := c.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	block, receipts := c.ApplyBlock(c.ProposeBatch(), 100, proposer)
	if len(receipts) != 1 || !receipts[0].Succeeded() {
		t.Fatalf("receipts = %+v", receipts)
	}
	rec := receipts[0]
	sched := evm.EthereumSchedule()
	if rec.GasUsed != sched.TxBase {
		t.Fatalf("gas used = %d, want %d", rec.GasUsed, sched.TxBase)
	}
	db := c.StateDB()
	if got := db.GetBalance(to); !got.Eq(u256.FromUint64(500)) {
		t.Fatalf("recipient = %s", got)
	}
	feePaid := u256.FromUint64(rec.GasUsed).Mul(u256.FromUint64(2))
	wantSender := u256.FromUint64(fund).Sub(u256.FromUint64(500)).Sub(feePaid)
	if got := db.GetBalance(kp.Address()); !got.Eq(wantSender) {
		t.Fatalf("sender = %s, want %s", got, wantSender)
	}
	if got := db.GetBalance(proposer); !got.Eq(feePaid) {
		t.Fatalf("proposer fees = %s, want %s", got, feePaid)
	}
	if db.GetNonce(kp.Address()) != 1 {
		t.Fatal("nonce must advance")
	}
	if block.Header.Height != 1 || block.Header.GasUsed != rec.GasUsed {
		t.Fatalf("header %+v", block.Header)
	}
}

func TestFailedTxChargesGas(t *testing.T) {
	kp := keys.Deterministic(1)
	c := newChain(t, ethConfig(1), nil, kp)
	reverting := hashing.AddressFromBytes([]byte{0x99})
	c.StateDB().CreateContract(reverting, asm.MustAssemble(`
		PUSH1 0
		PUSH1 0
		REVERT
	`))
	c.StateDB().Commit()

	tx := signedCall(t, kp, 1, 0, reverting, nil, 0)
	if _, err := c.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	_, receipts := c.ApplyBlock(c.ProposeBatch(), 100, ProposerAddress(1, 0))
	rec := receipts[0]
	if rec.Succeeded() {
		t.Fatal("reverting call must fail")
	}
	if rec.GasUsed == 0 {
		t.Fatal("failed tx must still pay gas")
	}
	if !strings.Contains(rec.Err, "reverted") {
		t.Fatalf("err = %q", rec.Err)
	}
	if c.StateDB().GetNonce(kp.Address()) != 1 {
		t.Fatal("nonce must advance on failure")
	}
}

func TestCreateTxDeploys(t *testing.T) {
	kp := keys.Deterministic(1)
	c := newChain(t, ethConfig(1), nil, kp)
	code := asm.MustAssemble("PUSH1 1 PUSH1 0 SSTORE STOP")
	tx := &types.Transaction{
		ChainID:  1,
		Nonce:    0,
		Kind:     types.TxCreate,
		GasLimit: 1_000_000,
		GasPrice: u256.FromUint64(2),
		Data:     code,
	}
	if _, err := tx.Sign(kp); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	_, receipts := c.ApplyBlock(c.ProposeBatch(), 100, ProposerAddress(1, 0))
	rec := receipts[0]
	if !rec.Succeeded() || rec.Created.IsZero() {
		t.Fatalf("receipt %+v", rec)
	}
	if len(c.StateDB().GetCode(rec.Created)) != len(code) {
		t.Fatal("code must be deployed")
	}
}

func TestBadNonceFailsWithoutFee(t *testing.T) {
	kp := keys.Deterministic(1)
	c := newChain(t, ethConfig(1), nil, kp)
	tx := signedCall(t, kp, 1, 7, hashing.AddressFromBytes([]byte{1}), nil, 0)
	id := tx.ID()
	sender, err := tx.SenderOf(id)
	rec := c.applyTx(tx, id, sender, err, evm.BlockContext{ChainID: 1, GasLimit: 30_000_000})
	if rec.Succeeded() || rec.GasUsed != 0 {
		t.Fatalf("receipt %+v", rec)
	}
	if got := c.StateDB().GetBalance(kp.Address()); !got.Eq(u256.FromUint64(fund)) {
		t.Fatal("bad-nonce tx must not charge")
	}
}

func TestHeaderRootRule(t *testing.T) {
	kp := keys.Deterministic(1)
	// Non-lagging: header h carries the root after h.
	eth := newChain(t, ethConfig(1), nil, kp)
	b1, _ := eth.ApplyBlock(nil, 10, ProposerAddress(1, 0))
	r1, _ := eth.RootAt(1)
	if b1.Header.StateRoot != r1 {
		t.Fatal("eth-like header must carry its own block's root")
	}
	// Lagging: header h carries the root after h-1.
	bur := newChain(t, burrowConfig(2), nil, kp)
	tx := signedCall(t, kp, 2, 0, hashing.AddressFromBytes([]byte{3}), nil, 5)
	if _, err := bur.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	bb1, _ := bur.ApplyBlock(bur.ProposeBatch(), 10, ProposerAddress(2, 0))
	bb2, _ := bur.ApplyBlock(nil, 15, ProposerAddress(2, 0))
	r0, _ := bur.RootAt(0)
	br1, _ := bur.RootAt(1)
	if bb1.Header.StateRoot != r0 {
		t.Fatal("lagging header 1 must carry the genesis root")
	}
	if bb2.Header.StateRoot != br1 {
		t.Fatal("lagging header 2 must carry height 1's root")
	}
	if br1 == r0 {
		t.Fatal("the transfer must have changed the root")
	}
}

func TestNotifyTx(t *testing.T) {
	kp := keys.Deterministic(1)
	c := newChain(t, ethConfig(1), nil, kp)
	tx := signedCall(t, kp, 1, 0, hashing.AddressFromBytes([]byte{1}), nil, 1)
	fired := 0
	c.NotifyTx(tx.ID(), func(rec *types.Receipt, b *types.Block) {
		fired++
		if !rec.Succeeded() || b.Header.Height != 1 {
			t.Errorf("rec %+v height %d", rec, b.Header.Height)
		}
	})
	if _, err := c.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	c.ApplyBlock(c.ProposeBatch(), 10, ProposerAddress(1, 0))
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
	// Late registration fires immediately.
	c.NotifyTx(tx.ID(), func(*types.Receipt, *types.Block) { fired++ })
	if fired != 2 {
		t.Fatal("late NotifyTx must fire immediately")
	}
}

// movableCode is a minimal Listing-1-style contract: called on chain 1,
// its moveTo routine moves it to chain 2; called on chain 2 (including the
// moveFinish invocation) it is a no-op.
func movableCode() []byte {
	return asm.MustAssemble(`
		CHAINID
		PUSH1 2
		EQ
		PUSH @done
		JUMPI
		PUSH1 2
		MOVE
	@done:
		JUMPDEST
		STOP
	`)
}

// TestCrossChainMoveThroughBlocks drives a full Move1/Move2 through block
// execution on two heterogeneous chains with manually relayed headers.
func TestCrossChainMoveThroughBlocks(t *testing.T) {
	kp := keys.Deterministic(1)
	cfg1, cfg2 := ethConfig(1), burrowConfig(2)
	src := newChain(t, cfg1, []core.ChainParams{cfg2.Params()}, kp)
	dst := newChain(t, cfg2, []core.ChainParams{cfg1.Params()}, kp)

	contract := hashing.AddressFromBytes([]byte{0xcc})
	src.StateDB().CreateContract(contract, movableCode())
	src.StateDB().SetStorage(contract, [32]byte{31: 1}, [32]byte{31: 42})
	src.StateDB().Commit()

	// Move1: call the contract; its code executes MOVE(2).
	move1 := signedCall(t, kp, 1, 0, contract, core.MoveToInput(2), 0)
	if _, err := src.SubmitTx(move1); err != nil {
		t.Fatal(err)
	}
	block1, receipts := src.ApplyBlock(src.ProposeBatch(), 10, ProposerAddress(1, 0))
	if !receipts[0].Succeeded() {
		t.Fatalf("move1 failed: %s", receipts[0].Err)
	}
	if src.StateDB().GetLocation(contract) != 2 {
		t.Fatal("contract must be locked towards chain 2")
	}

	// Build the proof at the Move1 height.
	payload, err := core.BuildMoveProof(src.StateDB(), contract, block1.Header.Height)
	if err != nil {
		t.Fatal(err)
	}

	// Mine p more blocks on the source and relay all headers to dst.
	for i := 0; i < int(cfg1.ConfirmationDepth); i++ {
		src.ApplyBlock(nil, uint64(20+i), ProposerAddress(1, 0))
	}
	var headers []*types.Header
	for h := uint64(0); h <= src.Head().Height; h++ {
		hdr, _ := src.HeaderAt(h)
		headers = append(headers, hdr)
	}
	if err := dst.Headers().Update(1, headers, src.Head().Height); err != nil {
		t.Fatal(err)
	}

	// Move2 on the target chain.
	move2 := &types.Transaction{
		ChainID:  2,
		Nonce:    0,
		Kind:     types.TxMove2,
		GasLimit: 10_000_000,
		GasPrice: u256.FromUint64(2),
		Move2:    payload,
	}
	if _, err := move2.Sign(kp); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.SubmitTx(move2); err != nil {
		t.Fatal(err)
	}
	_, receipts = dst.ApplyBlock(dst.ProposeBatch(), 200, ProposerAddress(2, 0))
	if !receipts[0].Succeeded() {
		t.Fatalf("move2 failed: %s", receipts[0].Err)
	}
	if dst.StateDB().GetLocation(contract) != 2 {
		t.Fatal("contract must now live on chain 2")
	}
	if got := dst.StateDB().GetStorage(contract, [32]byte{31: 1}); got != ([32]byte{31: 42}) {
		t.Fatal("storage must be recreated on chain 2")
	}

	// Replaying the same Move2 must fail on the move nonce.
	replay := &types.Transaction{
		ChainID:  2,
		Nonce:    1,
		Kind:     types.TxMove2,
		GasLimit: 10_000_000,
		GasPrice: u256.FromUint64(2),
		Move2:    payload,
	}
	if _, err := replay.Sign(kp); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.SubmitTx(replay); err != nil {
		t.Fatal(err)
	}
	_, receipts = dst.ApplyBlock(dst.ProposeBatch(), 210, ProposerAddress(2, 0))
	if receipts[0].Succeeded() {
		t.Fatal("replayed Move2 must fail")
	}
	if !strings.Contains(receipts[0].Err, "nonce") {
		t.Fatalf("err = %q", receipts[0].Err)
	}
}

// TestMove2FinishFailureRestoresStaleStorage imports a contract over the
// storage its target chain still holds from an earlier stay, then fails
// moveFinish: the whole Move2 rolls back, so the old storage, account
// record and storage root come back. Both chains are Burrow-like, so the
// import adopts the verified tree rather than rebuilding it.
func TestMove2FinishFailureRestoresStaleStorage(t *testing.T) {
	kp := keys.Deterministic(1)
	cfg1, cfg2 := burrowConfig(1), burrowConfig(2)
	src := newChain(t, cfg1, []core.ChainParams{cfg2.Params()}, kp)
	dst := newChain(t, cfg2, []core.ChainParams{cfg1.Params()}, kp)

	// Moves to chain 2 when called on chain 1; reverts every call on
	// chain 2, moveFinish included.
	code := asm.MustAssemble(`
		CHAINID
		PUSH1 2
		EQ
		PUSH @fail
		JUMPI
		PUSH1 2
		MOVE
		STOP
	@fail:
		JUMPDEST
		PUSH1 0
		PUSH1 0
		REVERT
	`)
	contract := hashing.AddressFromBytes([]byte{0xcd})
	slot1, slot2, slot3 := [32]byte{31: 1}, [32]byte{31: 2}, [32]byte{31: 3}
	stale := dst.StateDB()
	stale.CreateContract(contract, code)
	stale.SetStorage(contract, slot1, [32]byte{31: 0x15})
	stale.SetStorage(contract, slot2, [32]byte{31: 0x16})
	stale.SetLocation(contract, 1)
	stale.Commit()
	before, _ := stale.GetAccount(contract)

	src.StateDB().CreateContract(contract, code)
	src.StateDB().SetStorage(contract, slot1, [32]byte{31: 0x21})
	src.StateDB().SetStorage(contract, slot3, [32]byte{31: 0x23})
	src.StateDB().Commit()
	move1 := signedCall(t, kp, 1, 0, contract, core.MoveToInput(2), 0)
	if _, err := src.SubmitTx(move1); err != nil {
		t.Fatal(err)
	}
	block1, receipts := src.ApplyBlock(src.ProposeBatch(), 10, ProposerAddress(1, 0))
	if !receipts[0].Succeeded() {
		t.Fatalf("move1 failed: %s", receipts[0].Err)
	}
	payload, err := core.BuildMoveProof(src.StateDB(), contract, block1.Header.Height)
	if err != nil {
		t.Fatal(err)
	}
	// The lagging root lands one block later, then p more confirm it.
	for i := 0; i <= int(cfg1.ConfirmationDepth); i++ {
		src.ApplyBlock(nil, uint64(20+i), ProposerAddress(1, 0))
	}
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
		Kind:     types.TxMove2,
		GasLimit: 10_000_000,
		GasPrice: u256.FromUint64(2),
		Move2:    payload,
	}
	if _, err := move2.Sign(kp); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.SubmitTx(move2); err != nil {
		t.Fatal(err)
	}
	_, receipts = dst.ApplyBlock(dst.ProposeBatch(), 200, ProposerAddress(2, 0))
	if receipts[0].Succeeded() || !strings.Contains(receipts[0].Err, "moveFinish") {
		t.Fatalf("move2 must fail in moveFinish, got %+v", receipts[0])
	}
	after, ok := dst.StateDB().GetAccount(contract)
	if !ok || after != before {
		t.Fatalf("account after failed move2 %+v, want %+v", after, before)
	}
	if got := dst.StateDB().GetStorage(contract, slot1); got != ([32]byte{31: 0x15}) {
		t.Fatalf("slot 1 = %x, want the stale 0x15", got)
	}
	if got := dst.StateDB().GetStorage(contract, slot2); got != ([32]byte{31: 0x16}) {
		t.Fatalf("slot 2 = %x, want the stale 0x16", got)
	}
	if got := dst.StateDB().GetStorage(contract, slot3); got != ([32]byte{}) {
		t.Fatalf("slot 3 = %x, want it never imported", got)
	}
}

func TestMove2GasGrowsWithState(t *testing.T) {
	kp := keys.Deterministic(1)
	cfg := ethConfig(1)
	c := newChain(t, cfg, nil, kp)
	mk := func(n int) *types.Move2Payload {
		entries := make([]types.StorageEntry, n)
		for i := range entries {
			entries[i] = types.StorageEntry{Key: [32]byte{byte(i), 1}, Value: [32]byte{1}}
		}
		return &types.Move2Payload{Storage: entries, Code: []byte("some contract code")}
	}
	g1 := c.move2Gas(mk(1))
	g10 := c.move2Gas(mk(10))
	g100 := c.move2Gas(mk(100))
	sched := cfg.Schedule
	if g10-g1 != 9*sched.SStoreSet || g100-g10 != 90*sched.SStoreSet {
		t.Fatalf("gas must grow linearly in entries: %d %d %d", g1, g10, g100)
	}
}

func TestTxListRoundTrip(t *testing.T) {
	kp := keys.Deterministic(1)
	var txs []*types.Transaction
	for n := uint64(0); n < 5; n++ {
		txs = append(txs, signedCall(t, kp, 1, n, hashing.AddressFromBytes([]byte{1}), []byte("d"), 0))
	}
	decoded, err := DecodeTxList(EncodeTxList(txs))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 5 {
		t.Fatalf("decoded %d", len(decoded))
	}
	for i := range txs {
		if decoded[i].ID() != txs[i].ID() {
			t.Fatal("ids must survive")
		}
	}
	if _, err := DecodeTxList([]byte{0xff}); err == nil {
		t.Fatal("garbage must not decode")
	}
	empty, err := DecodeTxList(EncodeTxList(nil))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty list: %v %d", err, len(empty))
	}
}
