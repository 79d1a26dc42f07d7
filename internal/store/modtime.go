package store

import (
	"os"
	"time"
)

// ModTimer is an optional Backend refinement: the last-modified time of a
// stored entry, for age-based garbage collection. ok=false means the
// backend does not hold the key (or cannot date it).
type ModTimer interface {
	ModTime(key string) (time.Time, bool, error)
}

// ModTime implements ModTimer via one file stat.
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

// ModTime implements ModTimer by routing to the owning shard.
func (s *Sharded) ModTime(key string) (time.Time, bool, error) {
	if mt, ok := s.children[s.ShardFor(key)].(ModTimer); ok {
		return mt.ModTime(key)
	}
	return time.Time{}, false, nil
}

// ModTime implements ModTimer against the owner backend: GC reasons about
// the authoritative copy, not about replicas.
func (r *Replicated) ModTime(key string) (time.Time, bool, error) {
	if mt, ok := r.owner.(ModTimer); ok {
		return mt.ModTime(key)
	}
	return time.Time{}, false, nil
}
