// Package store is the persistent layer beneath the result cache: a small
// Backend interface over content-addressed blobs (key -> encoded entry
// bytes) and its one implementation, Disk — one file per key under a
// directory, written atomically.
//
// Backend stays an interface so tests can wrap a Disk to inject faults
// (read and write errors, truncated writes, latency) beneath
// internal/resultstore without touching the filesystem.
//
// Backends move opaque bytes: the envelope format (spec + result JSON)
// belongs to internal/resultstore, which validates on decode. Disk is safe
// for concurrent use.
package store

import "crypto/sha256"

// Backend is a content-addressed blob store. Keys are 64-hex SHA-256
// content addresses (see ValidKey); values are opaque encoded entries.
type Backend interface {
	// Get returns the stored bytes for key, or ok=false on a miss.
	Get(key string) ([]byte, bool, error)
	// Put stores val under key, overwriting any previous value.
	Put(key string, val []byte) error
	// Delete removes key; deleting an absent key is not an error.
	Delete(key string) error
	// Index returns every stored key, sorted. It never decodes values.
	Index() ([]string, error)
	// Stats returns a snapshot of the backend's counters.
	Stats() Stats
	// Close releases resources. A closed backend must not be used again.
	Close() error
}

// Stats is a point-in-time snapshot of one backend's traffic.
type Stats struct {
	// Name identifies the backend instance ("disk").
	Name string `json:"name"`
	// Kind is the implementation ("disk").
	Kind string `json:"kind"`
	// Entries is the number of keys currently stored.
	Entries int `json:"entries"`
	// Gets counts Get calls; Hits/Misses partition their outcomes.
	Gets   uint64 `json:"gets"`
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Puts and Deletes count mutations.
	Puts    uint64 `json:"puts"`
	Deletes uint64 `json:"deletes"`
}

// counters is the mutable half of Stats, embedded by implementations and
// guarded by each backend's own mutex.
type counters struct {
	gets, hits, misses, puts, deletes uint64
}

// snapshot fills the traffic fields of a Stats from the counters.
func (c *counters) snapshot(s *Stats) {
	s.Gets, s.Hits, s.Misses = c.gets, c.hits, c.misses
	s.Puts, s.Deletes = c.puts, c.deletes
}

// ValidKey reports whether key is a well-formed content address: 64
// lowercase hex digits. Backends that touch the filesystem reject anything
// else, so a malformed or path-traversing key can never escape the store.
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
