package universe

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
	"time"

	"scmove/internal/contracts"
	"scmove/internal/evm"
	"scmove/internal/state"
	"scmove/internal/state/backend"
	"scmove/internal/trees"
	"scmove/internal/u256"
)

// storeMoveSHA256 pins TestStoreMoveDeterminism: the sha256 over every
// move's simulated latency and Move2 gas plus both chains' final head
// height and state root.
const storeMoveSHA256 = "99a49fd6390757fa2b6825ecacc9d48db8abdb8b06506bb21f9c1e9a32021b8c"

// newFileStoreUniverse builds the two-shard Burrow deployment on the file
// state backend with one client.
func newFileStoreUniverse(t *testing.T, seed int64) *Universe {
	t.Helper()
	cfg := ShardedConfig(2, 1)
	cfg.NetSeed = seed
	cfg.State = state.Options{Backend: backend.KindFile, Dir: t.TempDir()}
	u, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := u.Close(); err != nil {
			t.Error(err)
		}
	})
	u.Start()
	return u
}

// storeSlotKey is the storage key of a Store contract's i-th variable.
func storeSlotKey(i uint64) evm.Word {
	var w evm.Word
	w[0] = 0x01
	binary.BigEndian.PutUint64(w[24:], i)
	return w
}

// TestStoreMoveDeterminism moves a 1500-slot Store back and forth 40 times
// on file-backed chains and pins everything the moves determine: each
// move's simulated latency and Move2 gas, and both chains' final head and
// state root. Any change to how Move2 verifies or imports storage that
// alters timing, gas or state shows up as a different hash. It runs at
// GOMAXPROCS 1, 2 and NumCPU, since commits hash storage trees on a
// worker pool. Wired into `make detsmoke`.
func TestStoreMoveDeterminism(t *testing.T) {
	seen := map[int]bool{}
	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		if seen[procs] {
			continue
		}
		seen[procs] = true
		if sum := storeMoveHash(t, procs); sum != storeMoveSHA256 {
			t.Fatalf("GOMAXPROCS=%d: store-move sha256 = %s, want %s", procs, sum, storeMoveSHA256)
		}
	}
}

func storeMoveHash(t *testing.T, procs int) string {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	u := newFileStoreUniverse(t, 1)
	cl := u.Client(0)
	ids := u.ChainIDs()
	store, err := u.MustDeploy(cl, u.Chain(ids[0]), contracts.StoreName,
		contracts.StoreConstructorArgs(cl.Address(), 1500), u256.Zero(), 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i := 0; i < 40; i++ {
		from, to := ids[i%2], ids[1-i%2]
		res, err := u.MoveAndWait(cl, from, to, store, 30*time.Minute)
		if err != nil {
			t.Fatalf("move %d %s->%s: %v", i, from, to, err)
		}
		fmt.Fprintf(h, "move %d total %d gas %d\n", i, res.Total(), res.Move2Gas)
	}
	for _, id := range ids {
		head, root := u.Chain(id).QueryHead()
		fmt.Fprintf(h, "chain %s head %d root %s\n", id, head.Height, root)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestStoreRoundTripDropsDeletedSlots moves a Store A->B, clears one of its
// slots on B and moves it back. The source chain still holds the storage
// the contract left behind; the returning import must replace it, not merge
// into it, so the cleared slot reads zero on A and A's storage is the set
// proven on B.
func TestStoreRoundTripDropsDeletedSlots(t *testing.T) {
	u := newFileStoreUniverse(t, 1)
	cl := u.Client(0)
	ids := u.ChainIDs()
	a, b := u.Chain(ids[0]), u.Chain(ids[1])
	store, err := u.MustDeploy(cl, a, contracts.StoreName,
		contracts.StoreConstructorArgs(cl.Address(), 10), u256.Zero(), 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.MoveAndWait(cl, a.ChainID(), b.ChainID(), store, 30*time.Minute); err != nil {
		t.Fatal(err)
	}
	const cleared = 3
	if _, err := u.MustCall(cl, b, store, contracts.EncodeCall("set",
		contracts.ArgUint(cleared), contracts.ArgWord(evm.Word{})), u256.Zero(), 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := b.QueryStorage(store, storeSlotKey(cleared)); got != (evm.Word{}) {
		t.Fatalf("slot %d on B = %x after set(%d, 0)", cleared, got, cleared)
	}
	res, err := u.MoveAndWait(cl, b.ChainID(), a.ChainID(), store, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.QueryStorage(store, storeSlotKey(cleared)); got != (evm.Word{}) {
		t.Fatalf("slot %d on A = %x after the round trip, want zero", cleared, got)
	}
	height, ok := b.TxHeight(res.Move1Tx)
	if !ok {
		t.Fatal("move1 has no height on B")
	}
	proof, err := b.Move2ProofAt(store, height)
	if err != nil {
		t.Fatal(err)
	}
	// A's storage is the proven set V, bar the movedAt stamp moveFinish
	// writes on arrival: the same keys, at most one value rewritten, and a
	// storage root equal to V's with that stamp applied.
	got := a.StateDB().StorageEntries(store)
	if len(got) != len(proof.Storage) {
		t.Fatalf("A holds %d slots, the proof carries %d", len(got), len(proof.Storage))
	}
	want := trees.MustNew(a.StateDB().TreeKind(), 32)
	stamped := 0
	for i, e := range proof.Storage {
		if got[i].Key != e.Key {
			t.Fatalf("A's slot %d is %x, the proof's %x", i, got[i].Key, e.Key)
		}
		if got[i].Value != e.Value {
			stamped++
		}
		if err := want.Set(e.Key[:], got[i].Value[:]); err != nil {
			t.Fatal(err)
		}
	}
	if stamped > 1 {
		t.Fatalf("%d of A's slots differ from the proof, want at most the movedAt stamp", stamped)
	}
	acct, ok := a.QueryAccount(store)
	if !ok {
		t.Fatal("store missing on A")
	}
	if acct.StorageRoot != want.RootHash() {
		t.Fatalf("A's storage root %s, proven set with stamp %s", acct.StorageRoot, want.RootHash())
	}
}
