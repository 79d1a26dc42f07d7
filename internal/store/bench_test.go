package store_test

import (
	"testing"

	"lard/internal/store"
)

// benchEntry approximates one encoded result envelope (~8 KB of JSON).
func benchEntry() []byte {
	b := make([]byte, 8192)
	for i := range b {
		b[i] = byte('a' + i%16)
	}
	return b
}

// BenchmarkDiskGet measures the store-read layer of the request stack:
// one entry file read from the disk backend, beneath resultstore's decoded
// in-memory layer.
func BenchmarkDiskGet(b *testing.B) {
	d, err := store.NewDisk("disk", b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	val := benchEntry()
	const keys = 64
	for i := 0; i < keys; i++ {
		if err := d.Put(key(i), val); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(val)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := d.Get(key(i % keys)); !ok || err != nil {
			b.Fatalf("miss: %v", err)
		}
	}
}
