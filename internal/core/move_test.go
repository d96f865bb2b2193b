package core

import (
	"errors"
	"testing"

	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/state"
	"scmove/internal/trie"
	"scmove/internal/types"
	"scmove/internal/u256"
)

const (
	chainA = hashing.ChainID(1) // MPT, Ethereum-like, p=6
	chainB = hashing.ChainID(2) // IAVL, Burrow-like, lagging root, p=2
)

func paramsA() ChainParams {
	return ChainParams{ID: chainA, TreeKind: trie.KindMPT, ConfirmationDepth: 6}
}

func paramsB() ChainParams {
	return ChainParams{ID: chainB, TreeKind: trie.KindIAVL, ConfirmationDepth: 2, LaggingStateRoot: true}
}

func addr(b byte) hashing.Address {
	var a hashing.Address
	a[0] = b
	return a
}

func word(b byte) evm.Word {
	var w evm.Word
	w[31] = b
	return w
}

// lockContract installs a contract on db, locks it towards target, commits,
// and returns the committed height's root published as a header.
func lockContract(t *testing.T, db *state.DB, contract hashing.Address, target hashing.ChainID) {
	t.Helper()
	db.CreateContract(contract, []byte("movable code"))
	db.SetStorage(contract, word(1), word(10))
	db.SetStorage(contract, word(2), word(20))
	db.AddBalance(contract, u256.FromUint64(77))
	db.SetNonce(contract, 5)
	db.SetLocation(contract, target)
	db.SetMoveNonce(contract, db.GetMoveNonce(contract)+1)
	db.Commit()
}

// publish feeds hs with a header chain for the given chain id so that the
// root of height is trusted: for lagging chains the root lands in height+1,
// and the head is advanced p blocks past the root-bearing header.
func publish(t testing.TB, hs *HeaderStore, params ChainParams, height uint64, root hashing.Hash) {
	t.Helper()
	rootHeight := height
	if params.LaggingStateRoot {
		rootHeight = height + 1
	}
	head := rootHeight + params.ConfirmationDepth
	var headers []*types.Header
	for h := rootHeight; h <= head; h++ {
		hdr := &types.Header{ChainID: params.ID, Height: h}
		if h == rootHeight {
			hdr.StateRoot = root
		}
		headers = append(headers, hdr)
	}
	if err := hs.Update(params.ID, headers, head); err != nil {
		t.Fatal(err)
	}
}

func newDBs(t *testing.T) (src, dst *state.DB) {
	t.Helper()
	var err error
	src, err = state.NewDB(chainA, trie.KindMPT)
	if err != nil {
		t.Fatal(err)
	}
	dst, err = state.NewDB(chainB, trie.KindIAVL)
	if err != nil {
		t.Fatal(err)
	}
	return src, dst
}

func TestMoveRoundTripMPTtoIAVL(t *testing.T) {
	src, dst := newDBs(t)
	contract := addr(0xc0)
	lockContract(t, src, contract, chainB)

	payload, err := BuildMoveProof(src, contract, 1)
	if err != nil {
		t.Fatal(err)
	}
	hs := NewHeaderStore(paramsA(), paramsB())
	publish(t, hs, paramsA(), 1, src.Root())

	acct, err := VerifyMove2(chainB, dst, hs, payload)
	if err != nil {
		t.Fatal(err)
	}
	ApplyMove2(dst, payload, acct)

	// The contract is recreated identically on the target chain.
	got, ok := dst.GetAccount(contract)
	if !ok {
		t.Fatal("contract must exist on target")
	}
	if got.Nonce != 5 || !got.Balance.Eq(u256.FromUint64(77)) || got.MoveNonce != 1 {
		t.Fatalf("recreated account %+v", got)
	}
	if got.Location != chainB {
		t.Fatal("recreated contract must be local to the target")
	}
	if string(dst.GetCode(contract)) != "movable code" {
		t.Fatal("code must be recreated")
	}
	if dst.GetStorage(contract, word(1)) != word(10) || dst.GetStorage(contract, word(2)) != word(20) {
		t.Fatal("storage must be recreated")
	}
}

func TestMoveRoundTripIAVLtoMPTLaggingRoot(t *testing.T) {
	// Burrow-like source: the root of height h is published in header h+1.
	src, err := state.NewDB(chainB, trie.KindIAVL)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := state.NewDB(chainA, trie.KindMPT)
	if err != nil {
		t.Fatal(err)
	}
	contract := addr(0xc1)
	lockContract(t, src, contract, chainA)

	payload, err := BuildMoveProof(src, contract, 4)
	if err != nil {
		t.Fatal(err)
	}
	hs := NewHeaderStore(paramsA(), paramsB())
	publish(t, hs, paramsB(), 4, src.Root())

	acct, err := VerifyMove2(chainA, dst, hs, payload)
	if err != nil {
		t.Fatal(err)
	}
	ApplyMove2(dst, payload, acct)
	if loc := dst.GetLocation(contract); loc != chainA {
		t.Fatalf("location = %s", loc)
	}
}

func TestBuildProofRequiresLock(t *testing.T) {
	src, _ := newDBs(t)
	contract := addr(0xc2)
	src.CreateContract(contract, []byte("code"))
	src.Commit()
	if _, err := BuildMoveProof(src, contract, 1); !errors.Is(err, ErrNotLocked) {
		t.Fatalf("want ErrNotLocked, got %v", err)
	}
}

func TestVerifyRejectsUnconfirmedHeight(t *testing.T) {
	src, dst := newDBs(t)
	contract := addr(0xc3)
	lockContract(t, src, contract, chainB)
	payload, err := BuildMoveProof(src, contract, 1)
	if err != nil {
		t.Fatal(err)
	}
	hs := NewHeaderStore(paramsA(), paramsB())
	// Publish the header but with head only 3 past it (p=6 required).
	hdr := &types.Header{ChainID: chainA, Height: 1, StateRoot: src.Root()}
	if err := hs.Update(chainA, []*types.Header{hdr}, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyMove2(chainB, dst, hs, payload); !errors.Is(err, ErrNotConfirmed) {
		t.Fatalf("want ErrNotConfirmed, got %v", err)
	}
}

func TestVerifyRejectsWrongTarget(t *testing.T) {
	src, _ := newDBs(t)
	contract := addr(0xc4)
	lockContract(t, src, contract, hashing.ChainID(9)) // destined elsewhere
	payload, err := BuildMoveProof(src, contract, 1)
	if err != nil {
		t.Fatal(err)
	}
	hs := NewHeaderStore(paramsA(), paramsB())
	publish(t, hs, paramsA(), 1, src.Root())
	dst, err := state.NewDB(chainB, trie.KindIAVL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyMove2(chainB, dst, hs, payload); !errors.Is(err, ErrWrongTarget) {
		t.Fatalf("want ErrWrongTarget, got %v", err)
	}
}

func TestVerifyRejectsTamperedStorage(t *testing.T) {
	src, dst := newDBs(t)
	contract := addr(0xc5)
	lockContract(t, src, contract, chainB)
	hs := NewHeaderStore(paramsA(), paramsB())
	publish(t, hs, paramsA(), 1, src.Root())

	build := func() *types.Move2Payload {
		p, err := BuildMoveProof(src, contract, 1)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Omitting an entry breaks completeness.
	p := build()
	p.Storage = p.Storage[:1]
	if _, err := VerifyMove2(chainB, dst, hs, p); !errors.Is(err, ErrIncompleteSet) {
		t.Fatalf("omission: want ErrIncompleteSet, got %v", err)
	}
	// Altering a value breaks completeness.
	p = build()
	p.Storage[0].Value = word(0xff)
	if _, err := VerifyMove2(chainB, dst, hs, p); !errors.Is(err, ErrIncompleteSet) {
		t.Fatalf("alteration: want ErrIncompleteSet, got %v", err)
	}
	// Injecting an entry breaks completeness.
	p = build()
	p.Storage = append(p.Storage, types.StorageEntry{Key: word(0xEE), Value: word(1)})
	if _, err := VerifyMove2(chainB, dst, hs, p); !errors.Is(err, ErrIncompleteSet) {
		t.Fatalf("injection: want ErrIncompleteSet, got %v", err)
	}
}

func TestVerifyRejectsTamperedCode(t *testing.T) {
	src, dst := newDBs(t)
	contract := addr(0xc6)
	lockContract(t, src, contract, chainB)
	payload, err := BuildMoveProof(src, contract, 1)
	if err != nil {
		t.Fatal(err)
	}
	payload.Code = []byte("evil code")
	hs := NewHeaderStore(paramsA(), paramsB())
	publish(t, hs, paramsA(), 1, src.Root())
	if _, err := VerifyMove2(chainB, dst, hs, payload); !errors.Is(err, ErrIncompleteCode) {
		t.Fatalf("want ErrIncompleteCode, got %v", err)
	}
}

// paramsC is a second IAVL chain, so a move from it to chainB keeps the
// tree kind.
func paramsC() ChainParams {
	return ChainParams{ID: hashing.ChainID(3), TreeKind: trie.KindIAVL, ConfirmationDepth: 2}
}

// Between chains of one tree kind, ApplyMove2 adopts the tree VerifyMove2
// built as the contract's live storage; across kinds it builds one tree in
// the target's kind with the same contents.
func TestApplyMove2AdoptsVerifiedTree(t *testing.T) {
	mptSrc, dst := newDBs(t)
	iavlSrc, err := state.NewDB(paramsC().ID, trie.KindIAVL)
	if err != nil {
		t.Fatal(err)
	}
	hs := NewHeaderStore(paramsA(), paramsB(), paramsC())
	for i, c := range []struct {
		src    *state.DB
		params ChainParams
		adopt  bool
	}{
		{iavlSrc, paramsC(), true},
		{mptSrc, paramsA(), false},
	} {
		contract := addr(0xd0 + byte(i))
		lockContract(t, c.src, contract, chainB)
		payload, err := BuildMoveProof(c.src, contract, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		publish(t, hs, c.params, uint64(i+1), c.src.Root())
		v, err := VerifyMove2(chainB, dst, hs, payload)
		if err != nil {
			t.Fatal(err)
		}
		ApplyMove2(dst, payload, v)
		live, ok := dst.StorageTreeAt(contract)
		if !ok {
			t.Fatalf("%s source: no live storage tree", c.params.TreeKind)
		}
		if adopted := live == v.Storage; adopted != c.adopt {
			t.Fatalf("%s source: adopted verified tree = %v, want %v", c.params.TreeKind, adopted, c.adopt)
		}
		if got := dst.StorageEntries(contract); len(got) != len(payload.Storage) {
			t.Fatalf("%s source: %d live entries, payload carries %d", c.params.TreeKind, len(got), len(payload.Storage))
		}
	}
}

// TestReplayProtectionFig2 reproduces the scenario of paper Fig. 2: a
// contract moves B1 → B2 and back B2 → B1; a replay of the original Move2
// on B2 must abort on the stale move nonce.
func TestReplayProtectionFig2(t *testing.T) {
	b1, b2 := newDBs(t)
	contract := addr(0xc7)
	hs := NewHeaderStore(paramsA(), paramsB())

	// Move B1 -> B2 (move nonce becomes 1).
	lockContract(t, b1, contract, chainB)
	originalPayload, err := BuildMoveProof(b1, contract, 1)
	if err != nil {
		t.Fatal(err)
	}
	publish(t, hs, paramsA(), 1, b1.Root())
	acct, err := VerifyMove2(chainB, b2, hs, originalPayload)
	if err != nil {
		t.Fatal(err)
	}
	ApplyMove2(b2, originalPayload, acct)

	// Immediate replay on B2: nonce 1 already seen.
	if _, err := VerifyMove2(chainB, b2, hs, originalPayload); !errors.Is(err, ErrReplay) {
		t.Fatalf("immediate replay: want ErrReplay, got %v", err)
	}

	// Move B2 -> B1 (Move1 on B2 bumps the nonce to 2).
	b2.SetLocation(contract, chainA)
	b2.SetMoveNonce(contract, b2.GetMoveNonce(contract)+1)
	b2.Commit()
	backPayload, err := BuildMoveProof(b2, contract, 1)
	if err != nil {
		t.Fatal(err)
	}
	publish(t, hs, paramsB(), 1, b2.Root())
	acctBack, err := VerifyMove2(chainA, b1, hs, backPayload)
	if err != nil {
		t.Fatal(err)
	}
	ApplyMove2(b1, backPayload, acctBack)
	if b1.GetLocation(contract) != chainA {
		t.Fatal("contract must be back on B1")
	}

	// The attack: replay the original Tmove2 on B2. The tombstone's move
	// nonce (2) exceeds the proof's (1) — abort (Fig. 2's "1 > 3" check).
	if _, err := VerifyMove2(chainB, b2, hs, originalPayload); !errors.Is(err, ErrReplay) {
		t.Fatalf("replay after round trip: want ErrReplay, got %v", err)
	}
}

func TestHeaderStoreUnknownChain(t *testing.T) {
	hs := NewHeaderStore(paramsA())
	if err := hs.Update(hashing.ChainID(42), nil, 0); !errors.Is(err, ErrUnknownChain) {
		t.Fatalf("want ErrUnknownChain, got %v", err)
	}
	if _, err := hs.TrustedStateRoot(hashing.ChainID(42), 0); !errors.Is(err, ErrUnknownChain) {
		t.Fatalf("want ErrUnknownChain, got %v", err)
	}
	if _, err := hs.TrustedStateRoot(chainA, 99); !errors.Is(err, ErrNoHeader) {
		t.Fatalf("want ErrNoHeader, got %v", err)
	}
}

func TestHeaderStoreReorgOverwrite(t *testing.T) {
	hs := NewHeaderStore(paramsA())
	h1 := &types.Header{ChainID: chainA, Height: 5, StateRoot: hashing.Sum([]byte("fork-a"))}
	h2 := &types.Header{ChainID: chainA, Height: 5, StateRoot: hashing.Sum([]byte("fork-b"))}
	if err := hs.Update(chainA, []*types.Header{h1}, 5); err != nil {
		t.Fatal(err)
	}
	if err := hs.Update(chainA, []*types.Header{h2}, 11); err != nil {
		t.Fatal(err)
	}
	root, err := hs.TrustedStateRoot(chainA, 5)
	if err != nil {
		t.Fatal(err)
	}
	if root != h2.StateRoot {
		t.Fatal("reorged header must win")
	}
}

func TestHeaderStoreRejectsMislabeledHeaders(t *testing.T) {
	hs := NewHeaderStore(paramsA(), paramsB())
	alien := &types.Header{ChainID: chainB, Height: 1}
	if err := hs.Update(chainA, []*types.Header{alien}, 1); err == nil {
		t.Fatal("header from another chain must be rejected")
	}
}

func TestMoveToInputRoundTrip(t *testing.T) {
	input := MoveToInput(hashing.ChainID(777))
	id, ok := ParseMoveToInput(input)
	if !ok || id != hashing.ChainID(777) {
		t.Fatalf("parse = %d, %v", id, ok)
	}
	if _, ok := ParseMoveToInput([]byte("garbage")); ok {
		t.Fatal("garbage must not parse")
	}
	if !IsMoveFinishInput(MoveFinishInput) || IsMoveFinishInput(input) {
		t.Fatal("move finish recognition broken")
	}
}
