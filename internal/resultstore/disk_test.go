package resultstore

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// diskKey returns a deterministic well-formed content address.
func diskKey(n int) string {
	return fmt.Sprintf("%064x", n+1)
}

func diskVal(n int) []byte { return []byte(fmt.Sprintf(`{"n":%d}`, n)) }

// backendContract exercises the behavior every Backend must share.
func backendContract(t *testing.T, b Backend) {
	t.Helper()
	if _, ok, err := b.Get(diskKey(1)); ok || err != nil {
		t.Fatalf("empty Get = %v, %v", ok, err)
	}
	for i := 1; i <= 3; i++ {
		if err := b.Put(diskKey(i), diskVal(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	got, ok, err := b.Get(diskKey(2))
	if err != nil || !ok || string(got) != string(diskVal(2)) {
		t.Fatalf("Get = %q, %v, %v", got, ok, err)
	}
	// Returned bytes are private: mutating them must not corrupt the store.
	if len(got) > 0 {
		got[0] = 'X'
		again, _, _ := b.Get(diskKey(2))
		if string(again) != string(diskVal(2)) {
			t.Fatal("mutating returned bytes corrupted the store")
		}
	}
	// Overwrite is idempotent on the index.
	if err := b.Put(diskKey(2), diskVal(22)); err != nil {
		t.Fatal(err)
	}
	keys, err := b.Index()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{diskKey(1), diskKey(2), diskKey(3)}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("Index = %v, want %v", keys, want)
	}
	if err := b.Delete(diskKey(2)); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete(diskKey(2)); err != nil { // absent delete is a no-op
		t.Fatal(err)
	}
	if _, ok, _ := b.Get(diskKey(2)); ok {
		t.Fatal("deleted key still readable")
	}
	if err := b.Put("../evil", diskVal(0)); err == nil {
		t.Fatal("malformed key must be rejected")
	}
	if n := b.Entries(); n != 2 {
		t.Fatalf("Entries = %d, want 2", n)
	}
}

func TestDiskContract(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	backendContract(t, d)
}

func TestDiskPersistsAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	d1, _ := NewDisk(dir)
	d1.Put(diskKey(1), diskVal(1))
	// Stray files never pollute the index.
	os.WriteFile(filepath.Join(dir, "README.txt"), []byte("hi"), 0o644)

	d2, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.Entries(); got != 1 {
		t.Fatalf("reopened entries = %d, want 1", got)
	}
	b, ok, err := d2.Get(diskKey(1))
	if err != nil || !ok || string(b) != string(diskVal(1)) {
		t.Fatalf("reopened Get = %q, %v, %v", b, ok, err)
	}
	keys, _ := d2.Index()
	if len(keys) != 1 || keys[0] != diskKey(1) {
		t.Fatalf("Index = %v", keys)
	}
}

// TestDiskIgnoresNonCanonicalPaths: a file Get cannot reach is not an
// entry. A store opened over an old sharded root (DIR/shard-NN/xx/<key>.json)
// lists nothing and counts nothing until the files move to DIR/xx/.
func TestDiskIgnoresNonCanonicalPaths(t *testing.T) {
	dir := t.TempDir()
	k := diskKey(1)
	old := filepath.Join(dir, "shard-00", k[:2], k+".json")
	if err := os.MkdirAll(filepath.Dir(old), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(old, diskVal(1), 0o644); err != nil {
		t.Fatal(err)
	}
	// A well-formed key filed under the wrong prefix directory is just as
	// unreachable.
	misfiled := filepath.Join(dir, "ff", k+".json")
	if err := os.MkdirAll(filepath.Dir(misfiled), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(misfiled, diskVal(1), 0o644); err != nil {
		t.Fatal(err)
	}

	d, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if keys, err := d.Index(); err != nil || len(keys) != 0 {
		t.Fatalf("Index = %v (%v), want empty", keys, err)
	}
	if got := d.Entries(); got != 0 {
		t.Fatalf("Entries = %d, want 0", got)
	}
	if _, ok, _ := d.Get(k); ok {
		t.Fatal("non-canonical file must not be readable")
	}

	// Merging the old layout into the flat one makes the entry visible.
	if err := os.MkdirAll(filepath.Dir(d.Path(k)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(old, d.Path(k)); err != nil {
		t.Fatal(err)
	}
	d2, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if keys, _ := d2.Index(); len(keys) != 1 || keys[0] != k {
		t.Fatalf("Index after merge = %v", keys)
	}
	if got := d2.Entries(); got != 1 {
		t.Fatalf("Entries after merge = %d, want 1", got)
	}
}

// TestModTime covers age probes on disk: absent keys are undated, fresh
// writes are recent.
func TestModTime(t *testing.T) {
	key := diskKey(2)
	disk, err := NewDisk(t.TempDir())
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
}

// BenchmarkDiskGet measures the store-read layer of the request stack:
// one entry file read from the disk backend, beneath the Store's decoded
// in-memory layer.
func BenchmarkDiskGet(b *testing.B) {
	d, err := NewDisk(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	// ~8 KB of bytes, the size of one encoded result envelope.
	val := make([]byte, 8192)
	for i := range val {
		val[i] = byte('a' + i%16)
	}
	const keys = 64
	for i := 0; i < keys; i++ {
		if err := d.Put(diskKey(i), val); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(val)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := d.Get(diskKey(i % keys)); !ok || err != nil {
			b.Fatalf("miss: %v", err)
		}
	}
}
