package resultstore

func write() error       { return nil }
func read() (int, error) { return 0, nil }
func count() int         { return 0 }

func flush() {
	write() // want `error result of write dropped on a store I/O path`
	count() // fine: no error to drop
	if _, err := read(); err != nil {
		return
	}
	_ = write()   // fine: explicit, grep-able discard
	defer write() // want `deferred write drops its error on a store I/O path`
}

type file struct{}

func (f *file) Close() error { return nil }

func persist(f *file) {
	defer f.Close() // want `deferred f.Close drops its error on a store I/O path`
	f.Close()       // want `error result of f.Close dropped on a store I/O path`
	defer func() {
		_ = f.Close() // fine: deliberate discard inside the closure
	}()
}
