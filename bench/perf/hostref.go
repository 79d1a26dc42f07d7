package perf

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The host's speed drifts by 10–20% within seconds and by up to 2× for a
// minute or two while other tenants load it, so raw latencies of one commit
// spread wider than any useful regression bound. The gated latency is
// therefore expressed in units of a fixed reference loop, timed right before
// and right after each operation (or each segment of a load phase): adjacent
// samples see the same host, and their ratio cancels part of the drift. The
// loop is the benchmark's own code, so no change to the repository moves
// it. It runs in the lard-perf parent while the workload process waits, so
// its memory never counts towards the workload's peak resident set.
//
// The loop mixes the four kinds of work whose sum tracked both the
// simulator and the HTTP path best on the measurement host, each taking
// about 15 ms there: faulting in fresh memory (the component that drifts
// most in a virtual machine, as the simulator's set-up allocations do),
// goroutine hand-offs over channels (the scheduler and wake-up path every
// request takes), JSON encoding and decoding (allocation and garbage
// collection), and random read-modify-writes in 1 MB (branchy integer work
// in a core-private cache). Pure compute and pointer chasing through a
// large table drifted far less than the simulator and were left out.

const (
	refFaultBytes = 24 << 20
	refHops       = 24_000
	refJSONRounds = 500
	refTableLen   = 1 << 17 // uint64 entries: 1 MB
	refRMWSteps   = 1_000_000
)

// hostRef holds the reference loop's data.
type hostRef struct {
	tab  []uint64
	doc  refDoc
	div  int // -quick cuts the loop by quickFactor
	sink uint64
}

type refDoc struct {
	Values []float64      `json:"values"`
	Counts map[string]int `json:"counts"`
	Name   string         `json:"name"`
}

func newHostRef(quick bool) *hostRef {
	h := &hostRef{tab: make([]uint64, refTableLen), div: 1}
	if quick {
		h.div = quickFactor
	}
	h.doc = refDoc{Values: make([]float64, 64), Counts: map[string]int{}, Name: "reference"}
	for i := range h.doc.Values {
		h.doc.Values[i] = float64(i) * 1.5
	}
	for i := range 16 {
		h.doc.Counts[strconv.Itoa(i)] = i
	}
	return h
}

// sampleMS runs the reference loop once and returns its wall time in ms.
func (h *hostRef) sampleMS() (float64, error) {
	t := time.Now()
	mem, err := syscall.Mmap(-1, 0, refFaultBytes/h.div, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return 0, fmt.Errorf("reference loop: %w", err)
	}
	for i := 0; i < len(mem); i += os.Getpagesize() {
		mem[i] = 1
	}
	if err := syscall.Munmap(mem); err != nil {
		return 0, fmt.Errorf("reference loop: %w", err)
	}

	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v
		}
		close(pong)
	}()
	for i := range refHops / h.div {
		ping <- i
		<-pong
	}
	close(ping)
	<-pong // the echo goroutine has finished

	x := uint64(1)
	for range refJSONRounds / h.div {
		// A fixed in-memory document always round-trips.
		b, _ := json.Marshal(h.doc)
		var d refDoc
		_ = json.Unmarshal(b, &d)
		x += uint64(len(b) + len(d.Values))
	}

	m := uint64(len(h.tab) - 1)
	for range refRMWSteps / h.div {
		x = x*6364136223846793005 + 1442695040888963407
		j := (x >> 17) & m
		h.tab[j] += x
		if h.tab[j]&1 == 0 {
			x ^= h.tab[j]
		}
	}
	h.sink += x
	return ms(time.Since(t)), nil
}

// answerRef times the reference loop for a workload process and writes the
// time in ms, or the failure, as one line. A failed write means the process
// died, which its exit status reports.
func (h *hostRef) answerRef(w io.Writer) {
	v, err := h.sampleMS()
	line := strconv.FormatFloat(v, 'g', -1, 64)
	if err != nil {
		line = "error: " + err.Error()
	}
	_, _ = fmt.Fprintln(w, line)
}

// refMS has the parent time the reference loop while this process waits:
// it prints refLine and reads the time in ms from its standard input.
func (e *env) refMS() (float64, error) {
	fmt.Fprintln(e.stdout, refLine)
	line, err := e.stdin.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("reference sample: %w", err)
	}
	line = strings.TrimSpace(line)
	if msg, failed := strings.CutPrefix(line, "error: "); failed {
		return 0, errors.New(msg)
	}
	return strconv.ParseFloat(line, 64)
}
