package store

import (
	"strings"
	"testing"
	"time"
)

// repKey builds a valid content address from one repeated byte.
func repKey(b byte) string { return strings.Repeat(string([]byte{b}), 64) }

// TestModTime covers age probes on disk, through a sharded composite, and
// their absence on memory.
func TestModTime(t *testing.T) {
	key := repKey('c')
	disk, err := NewDisk("d", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := disk.ModTime(key); ok {
		t.Fatal("absent key has a mod time")
	}
	if err := disk.Put(key, []byte("x")); err != nil {
		t.Fatal(err)
	}
	mt, ok, err := disk.ModTime(key)
	if err != nil || !ok {
		t.Fatalf("ModTime = %v %v", ok, err)
	}
	if d := time.Since(mt); d < 0 || d > time.Minute {
		t.Fatalf("mod time %v is not recent", mt)
	}

	sh, err := NewSharded("sharded", disk, NewMemory("m", 0))
	if err != nil {
		t.Fatal(err)
	}
	_, ok, err = sh.ModTime(key)
	wantOK := sh.ShardFor(key) == 0 // only the disk shard can date entries
	if err != nil || ok != wantOK {
		t.Fatalf("sharded ModTime ok = %v, want %v (err %v)", ok, wantOK, err)
	}
}
