package store

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Disk is the on-disk JSON backend, extracted from the original
// resultstore disk layer with its layout and atomicity guarantees intact:
// one file per key at dir/<key[:2]>/<key>.json, written via temp file +
// rename so concurrent writers and crashed processes can never leave a
// torn entry behind. Values round-trip byte-identically, so the
// content-address contract (same key, same bytes) survives the backend.
type Disk struct {
	name string
	dir  string

	mu      sync.Mutex
	entries int
	counters
}

// NewDisk opens (creating if missing) a disk backend rooted at dir. The
// initial entry count comes from one directory walk, so Stats.Entries is
// exact from the start.
func NewDisk(name, dir string) (*Disk, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: disk %s: empty directory", name)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: disk %s: %w", name, err)
	}
	d := &Disk{name: name, dir: dir}
	keys, err := d.Index()
	if err != nil {
		return nil, err
	}
	d.entries = len(keys)
	return d, nil
}

// Dir returns the backend's root directory.
func (d *Disk) Dir() string { return d.dir }

// Path returns the entry file for key, sharded by the first hash byte so
// no single directory grows unboundedly.
func (d *Disk) Path(key string) string {
	return filepath.Join(d.dir, key[:2], key+".json")
}

// Get implements Backend.
func (d *Disk) Get(key string) ([]byte, bool, error) {
	d.mu.Lock()
	d.gets++
	d.mu.Unlock()
	if !ValidKey(key) {
		d.count(&d.misses)
		return nil, false, nil
	}
	b, err := os.ReadFile(d.Path(key))
	if os.IsNotExist(err) {
		d.count(&d.misses)
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: disk %s: read %s: %w", d.name, key, err)
	}
	d.count(&d.hits)
	return b, true, nil
}

// Put implements Backend.
func (d *Disk) Put(key string, val []byte) error {
	if !ValidKey(key) {
		return fmt.Errorf("store: disk %s: invalid key %q", d.name, key)
	}
	path := d.Path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: disk %s: %w", d.name, err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+key+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: disk %s: %w", d.name, err)
	}
	if _, err := tmp.Write(val); err != nil {
		// Cleanup on an already-failing path: the write error is the one
		// the caller acts on, so these discards are deliberate.
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("store: disk %s: write %s: %w", d.name, key, err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("store: disk %s: close %s: %w", d.name, key, err)
	}
	// Whether this put creates or overwrites decides the entry-count
	// bookkeeping; check under the lock so concurrent puts of the same new
	// key count it once.
	d.mu.Lock()
	defer d.mu.Unlock()
	d.puts++
	_, statErr := os.Stat(path)
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("store: disk %s: commit %s: %w", d.name, key, err)
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
	d.deletes++
	err := os.Remove(d.Path(key))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: disk %s: delete %s: %w", d.name, key, err)
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
		return nil, fmt.Errorf("store: disk %s: index: %w", d.name, err)
	}
	sort.Strings(keys)
	return keys, nil
}

// Stats implements Backend.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := Stats{Name: d.name, Kind: "disk", Entries: d.entries}
	d.counters.snapshot(&s)
	return s
}

// Close implements Backend.
func (d *Disk) Close() error { return nil }

// count bumps one counter under the lock.
func (d *Disk) count(c *uint64) {
	d.mu.Lock()
	*c++
	d.mu.Unlock()
}
