package backend

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"scmove/internal/hashing"
)

func tAddr(b byte) hashing.Address {
	var a hashing.Address
	a[0] = b
	return a
}

func tWord(b byte) Word {
	var w Word
	w[31] = b
	return w
}

func tRoot(b byte) hashing.Hash {
	return hashing.Sum([]byte{b})
}

func accountBatch(pairs ...any) Batch {
	var b Batch
	for i := 0; i < len(pairs); i += 2 {
		addr := pairs[i].(hashing.Address)
		var cur []byte
		if pairs[i+1] != nil {
			cur = pairs[i+1].([]byte)
		}
		b.Accounts = append(b.Accounts, AccountChange{Addr: addr, Cur: cur})
	}
	return b
}

func TestFileCommitReadReopen(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	codeHash := hashing.Sum([]byte("code"))
	batch := accountBatch(tAddr(1), []byte("acct-1"), tAddr(2), []byte("acct-2"))
	batch.Slots = []SlotChange{
		{Key: SlotKey{Addr: tAddr(1), Key: tWord(7)}, Cur: tWord(42), CurExists: true},
	}
	batch.Codes = []CodeBlob{{Hash: codeHash, Code: []byte("code")}}
	if err := f.Commit(tRoot(1), batch); err != nil {
		t.Fatal(err)
	}

	if v, ok := f.Account(tAddr(1)); !ok || string(v) != "acct-1" {
		t.Fatalf("account 1: %q %v", v, ok)
	}
	if v, ok := f.Slot(SlotKey{Addr: tAddr(1), Key: tWord(7)}); !ok || v != tWord(42) {
		t.Fatalf("slot: %x %v", v, ok)
	}
	if c, ok := f.Code(codeHash); !ok || string(c) != "code" {
		t.Fatalf("code: %q %v", c, ok)
	}
	if _, ok := f.Account(tAddr(9)); ok {
		t.Fatal("phantom account")
	}

	// Overwrite, delete, and a second root.
	batch2 := accountBatch(tAddr(1), []byte("acct-1v2"), tAddr(2), nil)
	batch2.Slots = []SlotChange{
		{Key: SlotKey{Addr: tAddr(1), Key: tWord(7)}, Prev: tWord(42), PrevExisted: true},
	}
	if err := f.Commit(tRoot(2), batch2); err != nil {
		t.Fatal(err)
	}
	if v, ok := f.Account(tAddr(1)); !ok || string(v) != "acct-1v2" {
		t.Fatalf("account 1 after overwrite: %q %v", v, ok)
	}
	if _, ok := f.Account(tAddr(2)); ok {
		t.Fatal("deleted account still readable")
	}
	if _, ok := f.Slot(SlotKey{Addr: tAddr(1), Key: tWord(7)}); ok {
		t.Fatal("deleted slot still readable")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFile(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if root, ok := re.LatestRoot(); !ok || root != tRoot(2) {
		t.Fatalf("reopened root %s %v, want %s", root, ok, tRoot(2))
	}
	if v, ok := re.Account(tAddr(1)); !ok || string(v) != "acct-1v2" {
		t.Fatalf("reopened account: %q %v", v, ok)
	}
	if _, ok := re.Account(tAddr(2)); ok {
		t.Fatal("reopened deleted account")
	}
	if c, ok := re.Code(codeHash); !ok || string(c) != "code" {
		t.Fatalf("reopened code: %q %v", c, ok)
	}
	var accounts []hashing.Address
	re.IterateAccounts(func(a hashing.Address, enc []byte) bool {
		accounts = append(accounts, a)
		return true
	})
	if len(accounts) != 1 || accounts[0] != tAddr(1) {
		t.Fatalf("reopened account set: %v", accounts)
	}
}

func TestFileTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(tRoot(1), accountBatch(tAddr(1), []byte("durable"))); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: half a record lands on disk.
	path := segmentPath(dir, 0)
	a2 := tAddr(2)
	torn := appendRecord(nil, recAccount, a2[:], []byte("lost"))
	file, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := file.Write(torn[:len(torn)-3]); err != nil {
		t.Fatal(err)
	}
	file.Close()

	re, err := OpenFile(dir, 0)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	if v, ok := re.Account(tAddr(1)); !ok || string(v) != "durable" {
		t.Fatalf("durable record lost: %q %v", v, ok)
	}
	if _, ok := re.Account(tAddr(2)); ok {
		t.Fatal("torn record surfaced")
	}
	if root, ok := re.LatestRoot(); !ok || root != tRoot(1) {
		t.Fatalf("root after torn tail: %s %v", root, ok)
	}
	// The store must keep accepting commits after truncating the tail.
	if err := re.Commit(tRoot(2), accountBatch(tAddr(3), []byte("after"))); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := OpenFile(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if v, ok := re2.Account(tAddr(3)); !ok || string(v) != "after" {
		t.Fatalf("post-recovery commit lost: %q %v", v, ok)
	}
}

func TestFileCorruptionLosesOnlySuffix(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(tRoot(1), accountBatch(tAddr(1), []byte("first"))); err != nil {
		t.Fatal(err)
	}
	mark := f.written
	if err := f.Commit(tRoot(2), accountBatch(tAddr(2), []byte("second"))); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Flip a byte inside the second commit: everything after the corruption
	// is discarded, everything before survives.
	path := segmentPath(dir, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[mark+3] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFile(dir, 0)
	if err != nil {
		t.Fatalf("reopen with corrupt suffix: %v", err)
	}
	defer re.Close()
	if v, ok := re.Account(tAddr(1)); !ok || string(v) != "first" {
		t.Fatalf("prefix record lost: %q %v", v, ok)
	}
	if _, ok := re.Account(tAddr(2)); ok {
		t.Fatal("corrupt record surfaced")
	}
	if root, ok := re.LatestRoot(); !ok || root != tRoot(1) {
		t.Fatalf("root rolled to %s %v, want first commit", root, ok)
	}
}

func TestFileCompaction(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.CompactMinBytes = 1
	// Overwrite the same key until dead bytes outweigh live ones.
	var root byte
	for i := 0; i < 8; i++ {
		root++
		if err := f.Commit(tRoot(root), accountBatch(tAddr(1), bytes.Repeat([]byte{byte(i)}, 64))); err != nil {
			t.Fatal(err)
		}
	}
	live, dead := f.SegmentBytes()
	if dead != 0 {
		t.Fatalf("compaction never ran: live=%d dead=%d", live, dead)
	}
	if f.LiveKeys() != 1 {
		t.Fatalf("live keys after compaction: %d", f.LiveKeys())
	}
	ids, err := segmentIDs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 {
		t.Fatalf("old segments not deleted: %v", ids)
	}
	if v, ok := f.Account(tAddr(1)); !ok || !bytes.Equal(v, bytes.Repeat([]byte{7}, 64)) {
		t.Fatalf("value after compaction: %x %v", v, ok)
	}
	// Commits keep working into the compacted segment, and a reopen sees
	// the full live set plus the re-asserted root.
	if err := f.Commit(tRoot(root+1), accountBatch(tAddr(2), []byte("post"))); err != nil {
		t.Fatal(err)
	}
	f.Close()
	re, err := OpenFile(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if r, ok := re.LatestRoot(); !ok || r != tRoot(root+1) {
		t.Fatalf("root after compacted reopen: %s %v", r, ok)
	}
	if v, ok := re.Account(tAddr(1)); !ok || !bytes.Equal(v, bytes.Repeat([]byte{7}, 64)) {
		t.Fatalf("compacted value lost on reopen: %x %v", v, ok)
	}
	if v, ok := re.Account(tAddr(2)); !ok || string(v) != "post" {
		t.Fatalf("post-compaction commit lost: %q %v", v, ok)
	}
}

func TestFileOpenAtHistory(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := byte(1); i <= 4; i++ {
		b := accountBatch(tAddr(1), []byte{'v', i})
		if i > 1 {
			b.Accounts[0].Prev = []byte{'v', i - 1}
		}
		b.Slots = []SlotChange{{
			Key:  SlotKey{Addr: tAddr(1), Key: tWord(1)},
			Prev: tWord(i - 1), Cur: tWord(i),
			PrevExisted: i > 1, CurExists: true,
		}}
		if err := f.Commit(tRoot(i), b); err != nil {
			t.Fatal(err)
		}
	}
	roots := f.RetainedRoots()
	if len(roots) != 2 {
		t.Fatalf("retained %d roots, want 2", len(roots))
	}
	r, err := f.OpenAt(tRoot(3))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := r.Account(tAddr(1)); !ok || string(v) != "v\x03" {
		t.Fatalf("historical account: %q %v", v, ok)
	}
	if v, ok := r.Slot(SlotKey{Addr: tAddr(1), Key: tWord(1)}); !ok || v != tWord(3) {
		t.Fatalf("historical slot: %x %v", v, ok)
	}
	if _, err := f.OpenAt(tRoot(1)); !errors.Is(err, ErrRootNotRetained) {
		t.Fatalf("expired root error: %v", err)
	}
	if _, err := f.OpenAt(tRoot(99)); !errors.Is(err, ErrRootNotRetained) {
		t.Fatalf("unknown root error: %v", err)
	}
}
