package resultstore

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Backend is the persistent layer beneath the memory layer: a
// content-addressed blob store. Keys are 64-hex SHA-256 content addresses
// (see ValidKey); values are opaque encoded entries, validated by the
// Store on decode. Disk is the one implementation. Backend stays an
// interface so tests can wrap a Disk to inject faults (read and write
// errors, truncated writes, latency) without touching the filesystem.
type Backend interface {
	// Get returns the stored bytes for key, or ok=false on a miss.
	Get(key string) ([]byte, bool, error)
	// Put stores val under key, overwriting any previous value.
	Put(key string, val []byte) error
	// Delete removes key; deleting an absent key is not an error.
	Delete(key string) error
	// Index returns every stored key, sorted. It never decodes values.
	Index() ([]string, error)
	// ModTime returns the last-modified time of key's entry, for
	// age-based garbage collection; ok=false when the key is absent.
	ModTime(key string) (time.Time, bool, error)
	// Entries returns the number of keys currently stored.
	Entries() int
}

// ValidKey reports whether key is a well-formed content address: 64
// lowercase hex digits. Every lookup by a raw key string (GET
// /v1/runs/{id} fallbacks, the raw-entry endpoints) passes through here,
// so a malformed or path-traversing key can never touch the filesystem.
func ValidKey(key string) bool {
	if len(key) != sha256.Size*2 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Disk is the on-disk JSON backend: one file per key at
// dir/<key[:2]>/<key>.json, written via temp file + rename so concurrent
// writers and crashed processes can never leave a torn entry behind.
// Values round-trip byte-identically, so the content-address contract
// (same key, same bytes) holds on disk. Disk is safe for concurrent use.
type Disk struct {
	dir string

	// mu guards entries, and orders the stat+rename of concurrent Puts
	// and Deletes so each created or removed file is counted once.
	mu      sync.Mutex
	entries int
}

// NewDisk opens (creating if missing) a disk backend rooted at dir. The
// initial entry count comes from one directory walk, so Entries is exact
// from the start.
func NewDisk(dir string) (*Disk, error) {
	if dir == "" {
		return nil, errors.New("resultstore: disk: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: disk: %w", err)
	}
	d := &Disk{dir: dir}
	keys, err := d.Index()
	if err != nil {
		return nil, err
	}
	d.entries = len(keys)
	return d, nil
}

// Path returns the entry file for key, sharded by the first hash byte so
// no single directory grows unboundedly.
func (d *Disk) Path(key string) string {
	return filepath.Join(d.dir, key[:2], key+".json")
}

// Get implements Backend.
func (d *Disk) Get(key string) ([]byte, bool, error) {
	if !ValidKey(key) {
		return nil, false, nil
	}
	b, err := os.ReadFile(d.Path(key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("resultstore: disk: read %s: %w", key, err)
	}
	return b, true, nil
}

// Put implements Backend.
func (d *Disk) Put(key string, val []byte) error {
	if !ValidKey(key) {
		return fmt.Errorf("resultstore: disk: invalid key %q", key)
	}
	path := d.Path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("resultstore: disk: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+key+".tmp-*")
	if err != nil {
		return fmt.Errorf("resultstore: disk: %w", err)
	}
	if _, err := tmp.Write(val); err != nil {
		// Cleanup on an already-failing path: the write error is the one
		// the caller acts on, so these discards are deliberate.
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: disk: write %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: disk: close %s: %w", key, err)
	}
	// Whether this put creates or overwrites decides the entry count;
	// check under the lock so concurrent puts of the same new key count
	// it once.
	d.mu.Lock()
	defer d.mu.Unlock()
	_, statErr := os.Stat(path)
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: disk: commit %s: %w", key, err)
	}
	if os.IsNotExist(statErr) {
		d.entries++
	}
	return nil
}

// Delete implements Backend.
func (d *Disk) Delete(key string) error {
	if !ValidKey(key) {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	err := os.Remove(d.Path(key))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("resultstore: disk: delete %s: %w", key, err)
	}
	d.entries--
	return nil
}

// Index implements Backend. It collects keys from filenames alone — no
// entry is opened or decoded — so indexing a large store costs one
// directory walk, not one JSON parse per entry. Only files at their
// canonical path (Path(key)) count: a file Get cannot reach, such as one
// left in a foreign layout under a subdirectory, is not an entry.
func (d *Disk) Index() ([]string, error) {
	var keys []string
	root := filepath.Clean(d.dir)
	err := filepath.WalkDir(d.dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.IsDir() {
			// Entries live exactly one level down (dir/<key[:2]>/);
			// deeper trees cannot hold a canonical path.
			if path != d.dir && filepath.Dir(path) != root {
				return filepath.SkipDir
			}
			return nil
		}
		key, ok := strings.CutSuffix(de.Name(), ".json")
		if ok && ValidKey(key) && path == d.Path(key) { // skip temp files and stray content
			keys = append(keys, key)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("resultstore: disk: index: %w", err)
	}
	sort.Strings(keys)
	return keys, nil
}

// ModTime implements Backend via one file stat.
func (d *Disk) ModTime(key string) (time.Time, bool, error) {
	if !ValidKey(key) {
		return time.Time{}, false, nil
	}
	fi, err := os.Stat(d.Path(key))
	if os.IsNotExist(err) {
		return time.Time{}, false, nil
	}
	if err != nil {
		return time.Time{}, false, err
	}
	return fi.ModTime(), true, nil
}

// Entries implements Backend.
func (d *Disk) Entries() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.entries
}
