package backend

import "testing"

func TestFlatCacheAccountLRU(t *testing.T) {
	c := NewFlatCache[string](2, 2)
	c.PutAccount(tAddr(1), "one", true)
	c.PutAccount(tAddr(2), "two", true)
	// Touch 1 so 2 is the eviction victim when 3 arrives.
	if v, exists, known := c.Account(tAddr(1)); !known || !exists || v != "one" {
		t.Fatalf("account 1: %q %v %v", v, exists, known)
	}
	c.PutAccount(tAddr(3), "three", true)
	if _, _, known := c.Account(tAddr(2)); known {
		t.Fatal("LRU victim survived")
	}
	for _, want := range []struct {
		a byte
		v string
	}{{1, "one"}, {3, "three"}} {
		if v, exists, known := c.Account(tAddr(want.a)); !known || !exists || v != want.v {
			t.Fatalf("account %d: %q %v %v", want.a, v, exists, known)
		}
	}
}

func TestFlatCacheNegativeAccount(t *testing.T) {
	c := NewFlatCache[string](4, 4)
	c.PutAccount(tAddr(1), "", false)
	if _, exists, known := c.Account(tAddr(1)); !known || exists {
		t.Fatalf("negative entry: exists=%v known=%v", exists, known)
	}
	c.DropAccount(tAddr(1))
	if _, _, known := c.Account(tAddr(1)); known {
		t.Fatal("dropped entry still known")
	}
}

func TestFlatCacheWipeStorageIsPerAddress(t *testing.T) {
	c := NewFlatCache[string](4, 8)
	kA := SlotKey{Addr: tAddr(1), Key: tWord(1)}
	kB := SlotKey{Addr: tAddr(2), Key: tWord(1)}
	c.PutSlot(kA, tWord(10), true)
	c.PutSlot(kB, tWord(20), true)
	c.WipeStorage(tAddr(1))
	if _, _, known := c.Slot(kA); known {
		t.Fatal("wiped slot still known")
	}
	if v, exists, known := c.Slot(kB); !known || !exists || v != tWord(20) {
		t.Fatalf("unrelated slot wiped: %x %v %v", v, exists, known)
	}
	// A fresh write after the wipe is served again.
	c.PutSlot(kA, tWord(11), true)
	if v, exists, known := c.Slot(kA); !known || !exists || v != tWord(11) {
		t.Fatalf("post-wipe slot: %x %v %v", v, exists, known)
	}
}

func TestFlatCacheStats(t *testing.T) {
	c := NewFlatCache[string](4, 4)
	c.Account(tAddr(1)) // miss
	c.PutAccount(tAddr(1), "one", true)
	c.Account(tAddr(1))                            // hit
	c.Slot(SlotKey{Addr: tAddr(1), Key: tWord(1)}) // miss
	hits, misses := c.Stats()
	if hits != 1 || misses != 2 {
		t.Fatalf("stats: hits=%d misses=%d", hits, misses)
	}
	accounts, slots := c.Len()
	if accounts != 1 || slots != 0 {
		t.Fatalf("len: accounts=%d slots=%d", accounts, slots)
	}
}
