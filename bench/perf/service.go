package perf

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"lard"
	"lard/internal/engine"
	"lard/internal/obs"
	"lard/internal/resultstore"
	"lard/internal/server"
)

const (
	// cachedLimit and coldLimit are the latency limits past which a
	// request counts as failed.
	cachedLimit = 5 * time.Second
	coldLimit   = 60 * time.Second
	// registryJobs bounds the server's finished-job registry far below
	// every key set, as on a long-lived server whose key space outgrew it,
	// so cached requests take the store path instead of the registry.
	registryJobs = 8
	// serviceCores is the machine every service run simulates.
	serviceCores = 16
	// probeKeys bounds the keys the traced phase times direct calls on and
	// replays.
	probeKeys = 64
)

// Service requests rotate over these benchmarks and schemes: RT-3, the
// paper's protocol, and VR, whose victim replicas appear even in runs this
// short, so the replayed runs exercise every service point.
var (
	serviceBenches = lard.Benchmarks()[:8]
	serviceSchemes = []lard.Scheme{lard.LocalityAware(3), lard.VictimReplication()}
)

// runReq is one prepared POST /v1/runs.
type runReq struct {
	key  string
	req  server.RunRequest
	body []byte
	want uint64 // operations the run must execute
}

// newRunReq prepares request i of a key list at scale. Benchmarks rotate
// fastest, then schemes, so every prefix of a list mixes both; the run
// seed derives from the benchmark seed, and cold lists draw from a range
// of their own so they never hit a prewarmed key.
func newRunReq(seed uint64, i int, scale float64, cold bool) (runReq, error) {
	runSeed := seed*1_000_000 + uint64(i)
	if cold {
		runSeed += 500_000
	}
	bench := serviceBenches[i%len(serviceBenches)]
	req := server.RunRequest{
		Benchmark: bench,
		Scheme:    serviceSchemes[i/len(serviceBenches)%len(serviceSchemes)],
		Options:   lard.Options{Cores: serviceCores, OpsScale: scale, Seed: runSeed},
	}
	key, err := lard.KeyFor(req.Benchmark, req.Scheme, req.Options)
	if err != nil {
		return runReq{}, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return runReq{}, err
	}
	want, err := expectedOps(bench, serviceCores, scale)
	if err != nil {
		return runReq{}, err
	}
	return runReq{key: key, req: req, body: body, want: want}, nil
}

// service is an in-process lard-server on a loopback listener over a
// disk-backed store in the scratch directory.
type service struct {
	e     *env
	dir   string
	max   int
	st    *resultstore.Store
	srv   *server.Server
	hs    *http.Server
	url   string
	serve chan error

	keys    []runReq // prewarmed, in order
	digests []string // result digest of each prewarmed key
}

// coldSpans is one cold run's client latency and server-side span
// durations, read in traced runs.
type coldSpans struct {
	clientMS, rootMS, simMS, storMS float64
}

// startService builds the server and prewarms n keys through HTTP;
// maxEntries bounds the store's memory layer.
func startService(e *env, n, maxEntries int, clients []*http.Client) (*service, error) {
	dir, err := os.MkdirTemp(e.dir, "store-")
	if err != nil {
		return nil, err
	}
	s := &service{e: e, dir: dir, max: maxEntries, serve: make(chan error, 1)}
	if s.st, err = resultstore.Open(resultstore.BackendConfig{Dir: dir, MaxEntries: maxEntries}); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.srv, err = server.New(server.Config{
		Store:            s.st,
		Workers:          runtime.NumCPU(),
		MaxCompletedJobs: registryJobs,
		Obs:              obs.New(obs.Options{Tracing: e.trace}),
	})
	if err != nil {
		s.close()
		return nil, err
	}
	s.srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.serve <- s.hs.Serve(ln) }()

	for i := range n {
		r, err := newRunReq(e.seed, i, 0.01, false)
		if err != nil {
			s.close()
			return nil, err
		}
		s.keys = append(s.keys, r)
	}
	s.digests = make([]string, len(s.keys))
	if err := s.prewarm(clients); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// prewarm simulates every key, each client running a closed loop over its
// share. The set-up digest covers every prewarmed result.
func (s *service) prewarm(clients []*http.Client) error {
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	for g, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(s.keys); i += len(clients) {
				d, _, err := s.coldRun(c, s.keys[i])
				if err != nil {
					errs[g] = fmt.Errorf("prewarm %s: %w", s.keys[i].req.Benchmark, err)
					return
				}
				s.digests[i] = d
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	var err error
	s.e.rep.Digest, err = digestOf(s.digests)
	return err
}

func (s *service) close() {
	if s.hs != nil {
		s.hs.Close()
		<-s.serve
	}
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "lard-perf: server shutdown:", err)
		}
	}
	if s.st != nil {
		s.st.Close()
	}
	os.RemoveAll(s.dir)
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// do sends one request and reads the whole answer.
func (s *service) do(c *http.Client, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// view decodes a job view, requiring it done, and digests its result.
func view(b []byte) (digest string, res json.RawMessage, err error) {
	var v struct {
		Status string          `json:"status"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(b, &v); err != nil {
		return "", nil, err
	}
	if v.Status != server.StatusDone {
		return "", nil, fmt.Errorf("job %s %s", v.Status, v.Error)
	}
	d, err := digestJSON(v.Result)
	return d, v.Result, err
}

// cached sends one POST that must be answered from the store with the
// result recorded at prewarm.
func (s *service) cached(c *http.Client, i int) error {
	t := time.Now()
	code, b, err := s.do(c, http.MethodPost, "/v1/runs", s.keys[i].body)
	if err := checkResponse(code, err, time.Since(t), cachedLimit); err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("status %d, want 200 (cached)", code)
	}
	d, _, err := view(b)
	if err != nil {
		return err
	}
	return checkDigest(d, s.digests[i])
}

// coldRun submits a run, follows its event stream to the terminal frame,
// fetches the result and checks it; it returns the result's digest and the
// time from POST to result body.
func (s *service) coldRun(c *http.Client, r runReq) (digest string, took time.Duration, err error) {
	t := time.Now()
	code, b, err := s.do(c, http.MethodPost, "/v1/runs", r.body)
	if err := checkResponse(code, err, time.Since(t), coldLimit); err != nil {
		return "", 0, err
	}
	if code != http.StatusAccepted {
		return "", 0, fmt.Errorf("status %d, want 202 (fresh run)", code)
	}
	if err := s.follow(c, r.key); err != nil {
		return "", 0, err
	}
	code, b, err = s.do(c, http.MethodGet, "/v1/runs/"+r.key, nil)
	took = time.Since(t)
	if err := checkResponse(code, err, took, coldLimit); err != nil {
		return "", 0, err
	}
	digest, raw, err := view(b)
	if err != nil {
		return "", 0, err
	}
	var res lard.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return "", 0, err
	}
	return digest, took, checkLardOps(&res, r.want)
}

// follow reads GET /v1/runs/{id}/events until the terminal frame.
func (s *service) follow(c *http.Client, id string) error {
	resp, err := c.Get(s.url + "/v1/runs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev engine.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return err
		}
		if ev.Terminal {
			if ev.State != server.StatusDone {
				return fmt.Errorf("run ended %s: %s", ev.State, ev.Error)
			}
			_, err := io.Copy(io.Discard, resp.Body)
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("event stream ended without a terminal frame")
}

// spans reads a finished run's span tree.
func (s *service) spans(c *http.Client, id string, took time.Duration) (coldSpans, error) {
	code, b, err := s.do(c, http.MethodGet, "/v1/runs/"+id+"/trace", nil)
	if err := checkResponse(code, err, 0, time.Second); err != nil {
		return coldSpans{}, fmt.Errorf("trace: %w", err)
	}
	var tv obs.TraceView
	if err := json.Unmarshal(b, &tv); err != nil {
		return coldSpans{}, err
	}
	cs := coldSpans{clientMS: ms(took), rootMS: tv.Root.DurationMS}
	for _, ch := range tv.Root.Children {
		switch ch.Name {
		case "simulating":
			cs.simMS = ch.DurationMS
		case "stored":
			cs.storMS = ch.DurationMS
		}
	}
	return cs, nil
}

// loadStats is what one load phase measured.
type loadStats struct {
	tally
	lat, lag []float64 // ms, of the requests that succeeded
	shed     int
}

func (l *loadStats) add(o loadStats) {
	l.merge(o.tally)
	l.lat = append(l.lat, o.lat...)
	l.lag = append(l.lag, o.lag...)
	l.shed += o.shed
}

// record checks one request; a successful one adds latency samples.
func (l *loadStats) record(err error, lat, lag time.Duration) {
	l.check(err)
	if errors.Is(err, errShed) {
		l.shed++
	}
	if err == nil {
		l.lat = append(l.lat, ms(lat))
		l.lag = append(l.lag, ms(lag))
	}
}

// openLoop issues rate requests per second for d over senders goroutines,
// sender g owning requests first+g, first+g+senders, …. A request its
// sender could not send on time because the previous answer was late is
// timed from when it was due, so a stall charges every request due behind
// it. One sent late only because the idle sender's timer woke late — sleeps
// overshoot by up to a millisecond on small virtual hosts — is timed from
// when it went out: that lateness is the generator's own, reported as lag.
func openLoop(rate float64, d time.Duration, senders, first int, send func(i int) error) loadStats {
	start := time.Now()
	total := int(rate * d.Seconds())
	per := make([]loadStats, senders)
	var wg sync.WaitGroup
	for g := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var free time.Time // when the previous answer arrived
			for i := g; i < total; i += senders {
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				time.Sleep(time.Until(due))
				sent := time.Now()
				err := send(first + i)
				from := sent
				if free.After(due) {
					from = due
				}
				free = time.Now()
				per[g].record(err, free.Sub(from), sent.Sub(due))
			}
		}()
	}
	wg.Wait()
	var out loadStats
	for _, p := range per {
		out.add(p)
	}
	return out
}

// closedLoop runs clients goroutines, each sending its next request as
// soon as the previous one is answered, for d; it returns the outcomes and
// the completed requests per second.
func closedLoop(d time.Duration, clients int, send func(i int) error) (loadStats, float64) {
	start := time.Now()
	per := make([]loadStats, clients)
	var wg sync.WaitGroup
	for g := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; time.Since(start) < d; i += clients {
				t := time.Now()
				err := send(i)
				per[g].record(err, time.Since(t), 0)
			}
		}()
	}
	wg.Wait()
	var out loadStats
	for _, p := range per {
		out.add(p)
	}
	return out, float64(len(out.lat)) / time.Since(start).Seconds()
}

// pick draws request i's key index uniformly from n, a pure function of
// (seed, i) so every run with a seed sends the same keys.
func pick(seed uint64, i, n int) int {
	return int(splitmix(seed*0x9E3779B97F4A7C15+uint64(i)) % uint64(n))
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

// Each service process splits its measured phase into serviceSegments
// equal segments. The first warms the server up untimed; the others are
// timed, each between two reference samples (hostref.go), with the load
// paused while the parent samples.
const serviceSegments = 5

// runCached is service-cached: cached POSTs in an open loop over twice as
// many keys as the memory layer holds, then a closed loop measuring the
// highest cached rate.
func runCached(e *env) error {
	keys, maxEntries := 512, 256
	if e.quick {
		keys, maxEntries = 32, 16
	}
	nproc := runtime.NumCPU()
	client := newClient(nproc)
	defer client.CloseIdleConnections()
	clients := make([]*http.Client, nproc)
	for i := range clients {
		clients[i] = client
	}
	s, err := startService(e, keys, maxEntries, clients)
	if err != nil {
		return err
	}
	defer s.close()
	e.ready()
	seg := e.dur / serviceSegments
	send := func(i int) error { return s.cached(client, pick(e.seed, i, len(s.keys))) }
	const rate = 2000
	sent := int(rate * seg.Seconds())
	e.rep.merge(openLoop(rate, seg, nproc, 0, send).tally)
	m, err := e.startMeter()
	if err != nil {
		return err
	}
	before := s.st.Stats()
	// The last segment is the closed loop.
	var ol loadStats
	for k := 1; k < serviceSegments-1; k++ {
		if err := m.begin(); err != nil {
			return err
		}
		l := openLoop(rate, seg, nproc, k*sent, send)
		ol.add(l)
		if err := m.end(l.lat...); err != nil {
			return err
		}
	}
	cl, rps := closedLoop(seg, nproc, send)
	after := s.st.Stats()

	e.rep.merge(ol.tally)
	e.rep.merge(cl.tally)
	m.report()
	e.set("throughput_per_s", rps, "1/s", len(cl.lat))
	e.set("loadgen.lag_ms_p99", percentile(ol.lag, 0.99), "ms", len(ol.lag))
	e.set("engine.shed", float64(ol.shed+cl.shed), "count", ol.Attempted+cl.Attempted)
	mem, disk := float64(after.MemHits-before.MemHits), float64(after.DiskHits-before.DiskHits)
	e.set("resultstore.mem_hit_ratio", ratio(mem, mem+disk), "ratio", int(mem+disk))
	if !e.trace {
		return nil
	}
	prewarmed := make([]string, len(s.keys))
	for i, r := range s.keys {
		prewarmed[i] = r.key
	}
	return s.layers(client, prewarmed, nil)
}

// runMixed is service-mixed: a closed-loop cold client beside 500 cached
// POSTs/s, one connection each.
func runMixed(e *env) error {
	keys, maxEntries := 256, 256
	if e.quick {
		keys, maxEntries = 16, 16
	}
	cachedC, coldC := newClient(1), newClient(1)
	defer cachedC.CloseIdleConnections()
	defer coldC.CloseIdleConnections()
	s, err := startService(e, keys, maxEntries, []*http.Client{cachedC, coldC})
	if err != nil {
		return err
	}
	defer s.close()
	e.ready()
	seg := e.dur / serviceSegments
	const rate = 500
	sent := int(rate * seg.Seconds())
	var k int // cold runs started, so every one gets a fresh seed
	// segment runs the cached stream and the cold client side by side for
	// seg; traced, it also reads each cold run's span tree.
	segment := func(first int) (ol, cold loadStats, spans []coldSpans, coldKeys []string, err error) {
		cached := make(chan loadStats, 1)
		go func() {
			cached <- openLoop(rate, seg, 1, first, func(i int) error { return s.cached(cachedC, pick(e.seed, i, len(s.keys))) })
		}()
		for start := time.Now(); err == nil && time.Since(start) < seg; k++ {
			var r runReq
			if r, err = newRunReq(e.seed, k, 0.02, true); err != nil {
				break
			}
			_, took, runErr := s.coldRun(coldC, r)
			if runErr == nil && e.trace {
				var cs coldSpans
				cs, runErr = s.spans(coldC, r.key, took)
				spans = append(spans, cs)
			}
			cold.record(runErr, took, 0)
			if runErr == nil {
				coldKeys = append(coldKeys, r.key)
			}
		}
		return <-cached, cold, spans, coldKeys, err
	}

	ol, cold, _, _, err := segment(0)
	e.rep.merge(ol.tally)
	e.rep.merge(cold.tally)
	if err != nil {
		return err
	}
	m, err := e.startMeter()
	if err != nil {
		return err
	}
	before := s.st.Stats()
	var cached, colds loadStats
	var spans []coldSpans
	var coldKeys []string
	for j := 1; j < serviceSegments; j++ {
		if err := m.begin(); err != nil {
			return err
		}
		ol, cold, sp, ck, err := segment(j * sent)
		cached.add(ol)
		colds.add(cold)
		spans, coldKeys = append(spans, sp...), append(coldKeys, ck...)
		if err != nil {
			return err
		}
		if err := m.end(cold.lat...); err != nil {
			return err
		}
	}
	after := s.st.Stats()

	e.rep.merge(cached.tally)
	e.rep.merge(colds.tally)
	m.report()
	e.set("throughput_per_s", float64(len(colds.lat))/(seg*(serviceSegments-1)).Seconds(), "1/s", len(colds.lat))
	e.set("cached_ms_p50", median(cached.lat), "ms", len(cached.lat))
	e.set("cached_ms_p99", percentile(cached.lat, 0.99), "ms", len(cached.lat))
	e.set("loadgen.lag_ms_p99", percentile(cached.lag, 0.99), "ms", len(cached.lag))
	e.set("engine.shed", float64(cached.shed+colds.shed), "count", cached.Attempted+colds.Attempted)
	mem, disk := float64(after.MemHits-before.MemHits), float64(after.DiskHits-before.DiskHits)
	e.set("resultstore.mem_hit_ratio", ratio(mem, mem+disk), "ratio", int(mem+disk))
	if !e.trace {
		return nil
	}
	return s.layers(cachedC, coldKeys, spans)
}

// layers is a service workload's traced phase, on the idle server after
// the load: engine histograms scraped from /metrics, the span trees of the
// timed cold runs, direct calls into the facade, store and engine on the
// same store, and a replay of the simulations behind replayKeys.
func (s *service) layers(c *http.Client, replayKeys []string, cold []coldSpans) error {
	e := s.e
	code, b, err := s.do(c, http.MethodGet, "/metrics", nil)
	if err := checkResponse(code, err, 0, cachedLimit); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	for _, h := range []struct {
		family, name, unit string
		scale              float64
	}{
		{"lard_queue_wait_seconds", "engine.queue_wait_ms", "ms", 1e3},
		{"lard_dispatch_seconds", "engine.dispatch_us", "us", 1e6},
		{"lard_run_duration_seconds", "engine.run_ms", "ms", 1e3},
	} {
		total, n := histogramTotals(string(b), h.family)
		e.set(h.name, h.scale*ratio(total, n), h.unit, int(n))
	}

	if len(cold) > 0 {
		var simMS, storMS, edgeMS []float64
		for _, cs := range cold {
			simMS = append(simMS, cs.simMS)
			storMS = append(storMS, cs.storMS)
			edgeMS = append(edgeMS, cs.clientMS-cs.rootMS)
		}
		e.set("engine.simulating_ms", median(simMS), "ms", len(simMS))
		e.set("engine.stored_ms", median(storMS), "ms", len(storMS))
		e.set("server.cold_edge_ms", median(edgeMS), "ms", len(edgeMS))
	}

	// A second store on the same directory starts with an empty memory
	// layer, so its first Get of each key reads the disk.
	st2, err := resultstore.Open(resultstore.BackendConfig{Dir: s.dir, MaxEntries: s.max})
	if err != nil {
		return err
	}
	defer st2.Close()
	var keyUS, memUS, diskUS, putUS, submitUS, httpUS []float64
	timed := func(into *[]float64, f func() error) {
		t := time.Now()
		err := f()
		*into = append(*into, us(time.Since(t)))
		e.check(err)
	}
	for i, r := range s.keys[:min(len(s.keys), probeKeys)] {
		timed(&keyUS, func() error {
			k, err := lard.KeyFor(r.req.Benchmark, r.req.Scheme, r.req.Options)
			if err == nil && k != r.key {
				err = fmt.Errorf("KeyFor = %.12s, want %.12s", k, r.key)
			}
			return err
		})
		res, spec, ok, err := s.st.GetByKey(r.key) // now resident in memory
		if err != nil || !ok {
			return fmt.Errorf("stored key %.12s: ok=%v err=%v", r.key, ok, err)
		}
		timed(&memUS, func() error { return found(s.st.Get(spec)) })
		timed(&diskUS, func() error { return found(st2.Get(spec)) })
		timed(&putUS, func() error { return st2.Put(spec, res) })
		timed(&submitUS, func() error {
			v, shed, err := s.srv.Engine().Submit(r.key, r.req)
			if err == nil && (shed || v.Status != server.StatusDone) {
				err = fmt.Errorf("submit of a stored key: status %s, shed %v", v.Status, shed)
			}
			return err
		})
		timed(&httpUS, func() error { return s.cached(c, i) })
	}
	e.set("lard.key_us", median(keyUS), "us", len(keyUS))
	e.set("resultstore.get_mem_us", median(memUS), "us", len(memUS))
	e.set("resultstore.get_disk_us", median(diskUS), "us", len(diskUS))
	e.set("resultstore.put_disk_us", median(putUS), "us", len(putUS))
	e.set("engine.submit_cached_us", median(submitUS), "us", len(submitUS))
	e.set("server.http_cached_us", median(httpUS), "us", len(httpUS))
	e.set("server.http_self_us", median(httpUS)-median(submitUS), "us", len(httpUS))

	specs, err := storedSpecs(s.st, replayKeys[:min(len(replayKeys), probeKeys)])
	if err != nil {
		return err
	}
	return e.simLayers(specs, 0)
}

func found[T any](_ T, ok bool, err error) error {
	if err == nil && !ok {
		err = errors.New("stored result not found")
	}
	return err
}

// histogramTotals sums a histogram family's _sum and _count samples over
// every label set of a Prometheus text exposition.
func histogramTotals(exposition, family string) (total, count float64) {
	for _, line := range strings.Split(exposition, "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		name, _, _ := strings.Cut(line[:i], "{")
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		switch name {
		case family + "_sum":
			total += v
		case family + "_count":
			count += v
		}
	}
	return total, count
}
