package resultstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"lard/internal/mem"
	"lard/internal/sim"
	"lard/internal/stats"
)

// FuzzPutRaw drives PutRaw with arbitrary (key, entry bytes) pairs on a
// memory-only store. PutRaw never panics, and it either accepts the entry
// or rejects it with an error wrapping ErrInvalidEntry. An accepted entry
// is served back by GetByKey, and its canonical encoding round-trips:
// decoding and re-encoding it yields the same bytes and the same result,
// and GetRaw serves exactly those bytes.
func FuzzPutRaw(f *testing.F) {
	sp := spec(1)
	plain := fakeResult(42)
	runs := fakeResult(7)
	runs.Runs = &stats.RunLengthHist{}
	runs.Runs[mem.ClassSharedRW][2] = 12
	runs.EnergyPJ[0] = 1.5e-3
	for _, r := range []*sim.Result{plain, runs} {
		b, err := encodeEntry(entry{Key: sp.Key(), Spec: sp, Result: r})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(sp.Key(), b)
	}
	f.Add(sp.Key(), []byte(`{"key":"`+sp.Key()+`","result":{}}`))
	f.Add("not-a-key", []byte(`{}`))
	f.Fuzz(func(t *testing.T, key string, b []byte) {
		st, err := New("")
		if err != nil {
			t.Fatal(err)
		}
		if err := st.PutRaw(key, b); err != nil {
			if !errors.Is(err, ErrInvalidEntry) {
				t.Fatalf("PutRaw error %v does not wrap ErrInvalidEntry", err)
			}
			return
		}
		res, got, ok, err := st.GetByKey(key)
		if err != nil || !ok {
			t.Fatalf("accepted entry not served: ok=%v err=%v", ok, err)
		}
		enc, err := encodeEntry(entry{Key: key, Spec: got, Result: res})
		if err != nil {
			t.Fatal(err)
		}
		var back entry
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("canonical encoding does not decode: %v", err)
		}
		again, err := encodeEntry(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) || !reflect.DeepEqual(back.Result, res) || back.Spec.Key() != key {
			t.Fatalf("canonical encoding does not round-trip:\n%s\n%s", enc, again)
		}
		raw, ok, err := st.GetRaw(key)
		if err != nil || !ok || !bytes.Equal(raw, enc) {
			t.Fatalf("GetRaw = (%v, %v), want the canonical encoding", ok, err)
		}
	})
}
