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
