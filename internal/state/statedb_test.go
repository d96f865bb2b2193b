package state

import (
	"testing"

	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/state/backend"
	"scmove/internal/trees"
	"scmove/internal/trie"
	"scmove/internal/u256"
)

const localChain = hashing.ChainID(1)

func newTestDB(t *testing.T) *DB {
	t.Helper()
	db, err := NewDB(localChain, trie.KindMPT)
	if err != nil {
		t.Fatal(err)
	}
	return db
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

// storageTreeOf builds a storage tree of db's kind holding entries, as a
// verified Move2 hands it to ImportAccount.
func storageTreeOf(db *DB, entries ...StorageEntry) trie.Tree {
	t := trees.MustNew(db.TreeKind(), 32)
	for _, e := range entries {
		if err := t.Set(e.Key[:], e.Value[:]); err != nil {
			panic(err)
		}
	}
	return t
}

func TestAccountRoundTrip(t *testing.T) {
	a := Account{
		Nonce:       7,
		Balance:     u256.FromUint64(1234),
		CodeHash:    hashing.Sum([]byte("code")),
		StorageRoot: hashing.Sum([]byte("root")),
		Location:    hashing.ChainID(3),
		MoveNonce:   9,
	}
	got, err := DecodeAccount(a.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, a)
	}
}

func TestDecodeAccountRejectsGarbage(t *testing.T) {
	if _, err := DecodeAccount([]byte{1, 2, 3}); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestBalanceNonce(t *testing.T) {
	db := newTestDB(t)
	a := addr(1)
	if !db.GetBalance(a).IsZero() || db.GetNonce(a) != 0 {
		t.Fatal("fresh account must be zero")
	}
	db.AddBalance(a, u256.FromUint64(100))
	db.SubBalance(a, u256.FromUint64(30))
	db.SetNonce(a, 5)
	if got := db.GetBalance(a); !got.Eq(u256.FromUint64(70)) {
		t.Fatalf("balance = %s", got)
	}
	if db.GetNonce(a) != 5 {
		t.Fatalf("nonce = %d", db.GetNonce(a))
	}
	if !db.Exists(a) {
		t.Fatal("touched account must exist")
	}
}

func TestStorageSetGetDelete(t *testing.T) {
	db := newTestDB(t)
	a := addr(1)
	db.SetStorage(a, word(1), word(9))
	if got := db.GetStorage(a, word(1)); got != word(9) {
		t.Fatalf("storage = %x", got)
	}
	// Zero value deletes.
	db.SetStorage(a, word(1), evm.Word{})
	if got := db.GetStorage(a, word(1)); got != (evm.Word{}) {
		t.Fatalf("deleted storage = %x", got)
	}
	if len(db.StorageEntries(a)) != 0 {
		t.Fatal("no entries expected after delete")
	}
}

func TestSnapshotRevert(t *testing.T) {
	db := newTestDB(t)
	a, b := addr(1), addr(2)
	db.AddBalance(a, u256.FromUint64(50))
	db.SetStorage(a, word(1), word(1))

	snap := db.Snapshot()
	db.AddBalance(a, u256.FromUint64(100))
	db.SetStorage(a, word(1), word(2))
	db.SetStorage(a, word(2), word(3))
	db.SetNonce(b, 9)
	db.CreateContract(b, []byte("some code"))
	db.AddLog(&evm.Log{Address: a})
	db.SetLocation(a, hashing.ChainID(7))
	db.SetMoveNonce(a, 3)

	db.RevertToSnapshot(snap)

	if got := db.GetBalance(a); !got.Eq(u256.FromUint64(50)) {
		t.Fatalf("balance after revert = %s", got)
	}
	if got := db.GetStorage(a, word(1)); got != word(1) {
		t.Fatalf("storage[1] after revert = %x", got)
	}
	if got := db.GetStorage(a, word(2)); got != (evm.Word{}) {
		t.Fatalf("storage[2] after revert = %x", got)
	}
	if db.Exists(b) {
		t.Fatal("account b must not exist after revert")
	}
	if len(db.GetCode(b)) != 0 {
		t.Fatal("code must be gone after revert")
	}
	if logs := db.TakeLogs(); len(logs) != 0 {
		t.Fatalf("logs after revert = %d", len(logs))
	}
	if db.GetLocation(a) != localChain {
		t.Fatal("location must revert to local")
	}
	if db.GetMoveNonce(a) != 0 {
		t.Fatal("move nonce must revert")
	}
}

func TestNestedSnapshots(t *testing.T) {
	db := newTestDB(t)
	a := addr(1)
	db.SetStorage(a, word(1), word(1))
	s1 := db.Snapshot()
	db.SetStorage(a, word(1), word(2))
	s2 := db.Snapshot()
	db.SetStorage(a, word(1), word(3))
	db.RevertToSnapshot(s2)
	if got := db.GetStorage(a, word(1)); got != word(2) {
		t.Fatalf("after inner revert = %x", got)
	}
	db.RevertToSnapshot(s1)
	if got := db.GetStorage(a, word(1)); got != word(1) {
		t.Fatalf("after outer revert = %x", got)
	}
}

func TestCommitRootReflectsContents(t *testing.T) {
	db := newTestDB(t)
	a := addr(1)
	db.AddBalance(a, u256.FromUint64(10))
	r1 := db.Commit()
	if r1.IsZero() {
		t.Fatal("root must be non-zero after commit")
	}
	// Identical content on a fresh DB commits to the same root.
	db2 := newTestDB(t)
	db2.AddBalance(a, u256.FromUint64(10))
	if r2 := db2.Commit(); r2 != r1 {
		t.Fatalf("equal state, different roots: %s vs %s", r1, r2)
	}
	// Changing state changes the root.
	db.AddBalance(a, u256.FromUint64(1))
	if db.Commit() == r1 {
		t.Fatal("root must change with balance")
	}
}

func TestCommitIncludesStorageRoot(t *testing.T) {
	db := newTestDB(t)
	a := addr(1)
	db.CreateContract(a, []byte("c"))
	db.SetStorage(a, word(1), word(1))
	r1 := db.Commit()
	db.SetStorage(a, word(1), word(2))
	if db.Commit() == r1 {
		t.Fatal("storage change must change the state root")
	}
}

func TestEmptyAccountOmittedFromTree(t *testing.T) {
	db := newTestDB(t)
	a := addr(1)
	db.AddBalance(a, u256.FromUint64(5))
	db.SubBalance(a, u256.FromUint64(5))
	db.Commit()
	if db.AccountCount() != 0 {
		t.Fatalf("empty account committed: count=%d", db.AccountCount())
	}
}

func TestProveAccountAfterCommit(t *testing.T) {
	db := newTestDB(t)
	a := addr(1)
	db.AddBalance(a, u256.FromUint64(10))
	root := db.Commit()
	proof, err := db.ProveAccount(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(proof) == 0 || root.IsZero() {
		t.Fatal("expected proof and root")
	}
}

func TestLocationDefaultsToLocal(t *testing.T) {
	db := newTestDB(t)
	if db.GetLocation(addr(9)) != localChain {
		t.Fatal("absent accounts are implicitly local")
	}
	db.SetLocation(addr(9), hashing.ChainID(4))
	if db.GetLocation(addr(9)) != hashing.ChainID(4) {
		t.Fatal("explicit location must stick")
	}
}

func TestImportAccount(t *testing.T) {
	db := newTestDB(t)
	a := addr(3)
	code := []byte("imported code")
	entries := []StorageEntry{{Key: word(1), Value: word(7)}, {Key: word(2), Value: word(8)}}
	db.ImportAccount(a, Account{
		Nonce: 2, Balance: u256.FromUint64(99), MoveNonce: 4,
	}, code, storageTreeOf(db, entries...))

	acct, ok := db.GetAccount(a)
	if !ok {
		t.Fatal("account must exist")
	}
	if acct.Nonce != 2 || !acct.Balance.Eq(u256.FromUint64(99)) || acct.MoveNonce != 4 {
		t.Fatalf("imported account %+v", acct)
	}
	if acct.Location != localChain {
		t.Fatal("imported account must be local")
	}
	if string(db.GetCode(a)) != string(code) {
		t.Fatal("code mismatch")
	}
	if db.GetStorage(a, word(2)) != word(8) {
		t.Fatal("storage mismatch")
	}
}

func TestImportAccountRevertable(t *testing.T) {
	db := newTestDB(t)
	a := addr(3)
	snap := db.Snapshot()
	db.ImportAccount(a, Account{Nonce: 1}, []byte("c"), storageTreeOf(db, StorageEntry{Key: word(1), Value: word(1)}))
	db.RevertToSnapshot(snap)
	if db.Exists(a) {
		t.Fatal("import must roll back")
	}
	if db.GetStorage(a, word(1)) != (evm.Word{}) {
		t.Fatal("imported storage must roll back")
	}
}

// moveAwayWithStorage gives addr two committed slots, {1: 0x15, 2: 0x16},
// then locks it to another chain, the state a source chain keeps after a
// contract leaves. It returns the committed root and the account's
// storage root.
func moveAwayWithStorage(t *testing.T, db *DB, a hashing.Address) (root, storageRoot hashing.Hash) {
	t.Helper()
	db.CreateContract(a, []byte("code"))
	db.SetStorage(a, word(1), word(0x15))
	db.SetStorage(a, word(2), word(0x16))
	db.SetLocation(a, hashing.ChainID(2))
	db.SetMoveNonce(a, 1)
	root = db.Commit()
	acct, _ := db.GetAccount(a)
	return root, acct.StorageRoot
}

// An import replaces the storage a chain kept for a contract that moved
// away; it does not merge into it. A held slots {1, 2}, the contract
// deleted slot 2 elsewhere, and the import carries only {1}: afterwards
// slot 2 is gone from the live state, the committed backend and a reopened
// store, and the storage root is the proven one. The pre-import root still
// reads the old storage through the reverse diffs.
func TestImportReplacesStaleStorage(t *testing.T) {
	for _, kind := range []trie.Kind{trie.KindMPT, trie.KindIAVL} {
		for _, c := range []struct {
			name string
			opts Options
		}{
			{"memory", Options{}},
			{"file", Options{Backend: backend.KindFile, Dir: t.TempDir()}},
		} {
			t.Run(kind.String()+"/"+c.name, func(t *testing.T) {
				db, err := NewDBWith(localChain, kind, c.opts)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				a := addr(6)
				oldRoot, _ := moveAwayWithStorage(t, db, a)
				proven := storageTreeOf(db, StorageEntry{Key: word(1), Value: word(0x15)})
				provenRoot := proven.RootHash()
				db.ImportAccount(a, Account{MoveNonce: 2}, []byte("code"), proven)
				root := db.Commit()

				if got := db.GetStorage(a, word(2)); got != (evm.Word{}) {
					t.Fatalf("stale slot 2 reads %x after import", got)
				}
				if got := db.GetStorage(a, word(1)); got != word(0x15) {
					t.Fatalf("slot 1 reads %x", got)
				}
				acct, _ := db.GetAccount(a)
				if acct.StorageRoot != provenRoot {
					t.Fatalf("storage root %s, proven %s", acct.StorageRoot, provenRoot)
				}
				if _, ok := db.Backend().Slot(backend.SlotKey{Addr: a, Key: word(2)}); ok {
					t.Fatal("backend still holds stale slot 2")
				}
				if got, err := db.StorageEntriesAt(a, oldRoot); err != nil || len(got) != 2 {
					t.Fatalf("entries at the pre-import root = %v, %v; want both old slots", got, err)
				}
				if got, err := db.StorageEntriesAt(a, root); err != nil || len(got) != 1 {
					t.Fatalf("entries at the import root = %v, %v; want slot 1 only", got, err)
				}
				if c.opts.Backend != backend.KindFile {
					return
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				db, err = OpenDB(localChain, kind, c.opts)
				if err != nil {
					t.Fatal(err)
				}
				if db.Root() != root {
					t.Fatalf("reopened root %s, committed %s", db.Root(), root)
				}
				if got := db.StorageEntries(a); len(got) != 1 || got[0].Key != word(1) {
					t.Fatalf("reopened storage = %v, want slot 1 only", got)
				}
			})
		}
	}
}

// Reverting an import over stale storage puts the old tree back, with its
// slots readable through a warm flat cache and its root committed again.
func TestImportOverStaleStorageReverts(t *testing.T) {
	db := newTestDB(t)
	a := addr(7)
	oldRoot, oldStorageRoot := moveAwayWithStorage(t, db, a)
	snap := db.Snapshot()
	db.ImportAccount(a, Account{MoveNonce: 2}, []byte("code"),
		storageTreeOf(db, StorageEntry{Key: word(1), Value: word(0x21)}, StorageEntry{Key: word(3), Value: word(0x23)}))
	// Warm the flat cache with the imported values, then write through the
	// adopted tree as moveFinish would.
	if db.GetStorage(a, word(3)) != word(0x23) || db.GetStorage(a, word(2)) != (evm.Word{}) {
		t.Fatal("import not visible")
	}
	db.SetStorage(a, word(4), word(0x24))
	db.RevertToSnapshot(snap)

	for k, want := range map[byte]evm.Word{1: word(0x15), 2: word(0x16), 3: {}, 4: {}} {
		if got := db.GetStorage(a, word(k)); got != want {
			t.Fatalf("slot %d = %x after revert, want %x", k, got, want)
		}
	}
	acct, _ := db.GetAccount(a)
	if acct.StorageRoot != oldStorageRoot || acct.Location != hashing.ChainID(2) {
		t.Fatalf("reverted account %+v, want storage root %s at chain 2", acct, oldStorageRoot)
	}
	if root := db.Commit(); root != oldRoot {
		t.Fatalf("root after reverted import %s, want %s", root, oldRoot)
	}
}

func TestPruneStale(t *testing.T) {
	db := newTestDB(t)
	a := addr(5)
	db.CreateContract(a, []byte("code"))
	db.SetStorage(a, word(1), word(1))
	db.AddBalance(a, u256.FromUint64(10))
	db.SetMoveNonce(a, 3)

	// Still local: prune must refuse.
	if err := db.PruneStale(a); err == nil {
		t.Fatal("pruning a local contract must fail")
	}
	db.SetLocation(a, hashing.ChainID(2))
	if err := db.PruneStale(a); err != nil {
		t.Fatal(err)
	}
	if len(db.GetCode(a)) != 0 || len(db.StorageEntries(a)) != 0 {
		t.Fatal("prune must drop code and storage")
	}
	if !db.GetBalance(a).IsZero() {
		t.Fatal("prune must zero the locked balance")
	}
	// The tombstone keeps the replay-protection state (Fig. 2).
	if db.GetMoveNonce(a) != 3 {
		t.Fatal("prune must keep the move nonce")
	}
	if db.GetLocation(a) != hashing.ChainID(2) {
		t.Fatal("prune must keep the location")
	}
}

func TestDeleteAccount(t *testing.T) {
	db := newTestDB(t)
	a := addr(6)
	db.CreateContract(a, []byte("code"))
	db.SetStorage(a, word(1), word(2))
	snap := db.Snapshot()
	db.DeleteAccount(a)
	if db.Exists(a) || db.GetStorage(a, word(1)) != (evm.Word{}) {
		t.Fatal("delete must clear the account")
	}
	db.RevertToSnapshot(snap)
	if !db.Exists(a) || db.GetStorage(a, word(1)) != word(2) {
		t.Fatal("delete must be revertable")
	}
}

func TestTakeLogsClears(t *testing.T) {
	db := newTestDB(t)
	db.AddLog(&evm.Log{Address: addr(1)})
	db.AddLog(&evm.Log{Address: addr(2)})
	if got := db.TakeLogs(); len(got) != 2 {
		t.Fatalf("TakeLogs = %d", len(got))
	}
	if got := db.TakeLogs(); len(got) != 0 {
		t.Fatalf("second TakeLogs = %d", len(got))
	}
}

func TestCommitDeterministicAcrossDirtyOrder(t *testing.T) {
	// Commit sorts dirty accounts; two DBs touched in different orders must
	// produce the same root.
	db1 := newTestDB(t)
	db2 := newTestDB(t)
	for i := 0; i < 20; i++ {
		db1.AddBalance(addr(byte(i)), u256.FromUint64(uint64(i+1)))
	}
	for i := 19; i >= 0; i-- {
		db2.AddBalance(addr(byte(i)), u256.FromUint64(uint64(i+1)))
	}
	if db1.Commit() != db2.Commit() {
		t.Fatal("commit order must not affect the root")
	}
}
