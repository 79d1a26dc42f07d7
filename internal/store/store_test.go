package store_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lard/internal/store"
)

// key returns a deterministic well-formed content address.
func key(n int) string {
	return fmt.Sprintf("%064x", n+1)
}

func val(n int) []byte { return []byte(fmt.Sprintf(`{"n":%d}`, n)) }

// backendContract exercises the behavior every Backend must share.
func backendContract(t *testing.T, b store.Backend) {
	t.Helper()
	if _, ok, err := b.Get(key(1)); ok || err != nil {
		t.Fatalf("empty Get = %v, %v", ok, err)
	}
	for i := 1; i <= 3; i++ {
		if err := b.Put(key(i), val(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	got, ok, err := b.Get(key(2))
	if err != nil || !ok || string(got) != string(val(2)) {
		t.Fatalf("Get = %q, %v, %v", got, ok, err)
	}
	// Returned bytes are private: mutating them must not corrupt the store.
	if len(got) > 0 {
		got[0] = 'X'
		again, _, _ := b.Get(key(2))
		if string(again) != string(val(2)) {
			t.Fatal("mutating returned bytes corrupted the store")
		}
	}
	// Overwrite is idempotent on the index.
	if err := b.Put(key(2), val(22)); err != nil {
		t.Fatal(err)
	}
	keys, err := b.Index()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{key(1), key(2), key(3)}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("Index = %v, want %v", keys, want)
	}
	if err := b.Delete(key(2)); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete(key(2)); err != nil { // absent delete is a no-op
		t.Fatal(err)
	}
	if _, ok, _ := b.Get(key(2)); ok {
		t.Fatal("deleted key still readable")
	}
	if err := b.Put("../evil", val(0)); err == nil {
		t.Fatal("malformed key must be rejected")
	}
	st := b.Stats()
	if st.Entries != 2 {
		t.Fatalf("Entries = %d, want 2", st.Entries)
	}
	if st.Gets == 0 || st.Puts == 0 || st.Deletes == 0 {
		t.Fatalf("counters not moving: %+v", st)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDiskContract(t *testing.T) {
	d, err := store.NewDisk("disk", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	backendContract(t, d)
}

func TestDiskPersistsAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	d1, _ := store.NewDisk("d", dir)
	d1.Put(key(1), val(1))
	// Stray files never pollute the index.
	os.WriteFile(filepath.Join(dir, "README.txt"), []byte("hi"), 0o644)

	d2, err := store.NewDisk("d", dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.Stats().Entries; got != 1 {
		t.Fatalf("reopened entries = %d, want 1", got)
	}
	b, ok, err := d2.Get(key(1))
	if err != nil || !ok || string(b) != string(val(1)) {
		t.Fatalf("reopened Get = %q, %v, %v", b, ok, err)
	}
	keys, _ := d2.Index()
	if len(keys) != 1 || keys[0] != key(1) {
		t.Fatalf("Index = %v", keys)
	}
}

// TestDiskIgnoresNonCanonicalPaths: a file Get cannot reach is not an
// entry. A store opened over an old sharded root (DIR/shard-NN/xx/<key>.json)
// lists nothing and counts nothing until the files move to DIR/xx/.
func TestDiskIgnoresNonCanonicalPaths(t *testing.T) {
	dir := t.TempDir()
	k := key(1)
	old := filepath.Join(dir, "shard-00", k[:2], k+".json")
	if err := os.MkdirAll(filepath.Dir(old), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(old, val(1), 0o644); err != nil {
		t.Fatal(err)
	}
	// A well-formed key filed under the wrong prefix directory is just as
	// unreachable.
	misfiled := filepath.Join(dir, "ff", k+".json")
	if err := os.MkdirAll(filepath.Dir(misfiled), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(misfiled, val(1), 0o644); err != nil {
		t.Fatal(err)
	}

	d, err := store.NewDisk("d", dir)
	if err != nil {
		t.Fatal(err)
	}
	if keys, err := d.Index(); err != nil || len(keys) != 0 {
		t.Fatalf("Index = %v (%v), want empty", keys, err)
	}
	if got := d.Stats().Entries; got != 0 {
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
	d2, err := store.NewDisk("d", dir)
	if err != nil {
		t.Fatal(err)
	}
	if keys, _ := d2.Index(); len(keys) != 1 || keys[0] != k {
		t.Fatalf("Index after merge = %v", keys)
	}
	if got := d2.Stats().Entries; got != 1 {
		t.Fatalf("Entries after merge = %d, want 1", got)
	}
}
