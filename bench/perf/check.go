package perf

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"lard"
	"lard/internal/config"
	"lard/internal/sim"
	"lard/internal/trace"
)

// tally counts checked operations and keeps the first failures' reasons.
// Every workload operation — a run, a matrix, a request — is checked once.
type tally struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
}

// maxErrors bounds the failure reasons a tally keeps; the count is exact.
const maxErrors = 20

// check counts one operation, failed when err is non-nil.
func (t *tally) check(err error) {
	t.Attempted++
	if err == nil {
		return
	}
	t.Failed++
	if len(t.Errors) < maxErrors {
		t.Errors = append(t.Errors, err.Error())
	}
}

func (t *tally) merge(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	for _, e := range o.Errors {
		if len(t.Errors) < maxErrors {
			t.Errors = append(t.Errors, e)
		}
	}
}

// errShed marks a request the service refused with 429.
var errShed = errors.New("shed with 429")

// checkOps checks the conservation law every simulation obeys: the miss
// types sum to the operations executed, and those are exactly the
// operations the trace generator emits.
func checkOps(ops, missSum, want uint64) error {
	if ops != want {
		return fmt.Errorf("ops = %d, want %d", ops, want)
	}
	if missSum != ops {
		return fmt.Errorf("miss types sum to %d, ops = %d", missSum, ops)
	}
	return nil
}

func checkLardOps(r *lard.Result, want uint64) error {
	var s uint64
	for _, n := range r.Misses {
		s += n
	}
	return checkOps(r.Ops, s, want)
}

func checkSimOps(r *sim.Result, want uint64) error {
	var s uint64
	for _, n := range r.Miss {
		s += n
	}
	return checkOps(r.Ops, s, want)
}

func checkDigest(got, want string) error {
	if got != want {
		return fmt.Errorf("outcome digest %.12s, want %.12s", got, want)
	}
	return nil
}

// checkResponse classifies one HTTP exchange: a transport error, a non-2xx
// status (429 included) or an answer slower than limit fails it.
func checkResponse(code int, err error, took, limit time.Duration) error {
	switch {
	case err != nil:
		return err
	case code == 429:
		return errShed
	case code < 200 || code > 299:
		return fmt.Errorf("status %d", code)
	case took > limit:
		return fmt.Errorf("took %v, limit %v", took, limit)
	}
	return nil
}

// digestOf returns the SHA-256 of v's JSON encoding. Map keys encode
// sorted, so equal results digest equally.
func digestOf(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:]), nil
}

// digestJSON digests an encoded result independent of its whitespace.
func digestJSON(raw []byte) (string, error) {
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	h := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(h[:]), nil
}

// expectedOps is the operation count the trace generator emits for
// (bench, cores, scale): cores × ⌊profile ops × scale⌋.
func expectedOps(bench string, cores int, scale float64) (uint64, error) {
	prof, err := trace.ProfileByName(bench)
	if err != nil {
		return 0, err
	}
	cfg, err := config.ForCores(cores)
	if err != nil {
		return 0, err
	}
	var n uint64
	for _, s := range trace.Generate(prof, cfg, scale, 0).Streams {
		n += uint64(s.Remaining())
	}
	return n, nil
}

// sameOutcome compares two simulations by the digest of their canonical
// JSON, which covers every outcome field of sim.Result.
func sameOutcome(got, want *sim.Result) error {
	g, err := digestOf(got)
	if err != nil {
		return err
	}
	w, err := digestOf(want)
	if err != nil {
		return err
	}
	if g != w {
		return fmt.Errorf("%s/%s/%d: outcome digest %.12s, want %.12s", want.Benchmark, want.Scheme, want.Cores, g, w)
	}
	return nil
}
