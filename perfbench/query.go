package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Query workload parameters. The served corpus is a fixed fixture: the
// study workload's corpus of the pinned seed, saved columnar (its ten
// simulated minutes bound every time window below). The run's seed draws
// the request stream — the cold scans, the mix and the arrival times —
// so every seed queries the same data and the pinned corpus digest
// gates every run.
const (
	corpusHours = 10.0 / 60
	latencyMS   = 250 // the p99 limit a rung must meet
	conns       = 2   // keep-alive connections of the load generator
	setupRounds = 3   // OpenCorpus → first healthy response, median of
	minSweeps   = 3
	sweepFrac   = 0.15 // share of --seconds spent on cold sweeps
	sweepCold   = 32   // distinct cold scans per sweep
	refRate     = 100  // requests/s at which query latency is reported
	// refRequests is sized so the reference p99 has ≥ 10 samples beyond it.
	refRequests = 1100
	// An open-loop rung is abandoned once the generator runs this late:
	// the rung has already failed and the rest would only lengthen the run.
	abandonLag = 2 * time.Second
)

// ladder are the rates above the reference rate tried for query_max_rps,
// each for rungFrac of --seconds; the ladder stops at the first rung
// that is not sustained.
var ladder = []float64{140, 200, 280, 400, 560, 800, 1120, 1600, 2240, 3200}

const rungFrac = 0.08

// request is one query of the mix.
type request struct {
	class string // hot, cold or report
	path  string
}

// hotScans are the small fixed set of repeated scans; they fit in the
// result cache.
var hotScans = []string{
	"/v1/scan?kinds=Read&max_h=0.05&cols=kind,start&limit=32",
	"/v1/scan?kinds=Write&min_h=0.05&max_h=0.1&cols=kind,start,length&limit=32",
	"/v1/scan?kinds=Create,Close&cols=kind,start&limit=32",
	"/v1/scan?kinds=LazyWrite&cols=kind,start,offset,length&limit=32",
	"/v1/scan?kinds=FastRead,FastWrite&min_h=0.1&cols=kind,start,end&limit=32",
	"/v1/scan?kinds=SetEndOfFile,SetDisposition&cols=kind,start&limit=32",
	"/v1/scan?min_h=0.15&cols=kind,start&limit=16",
	"/v1/scan?kinds=QueryInformation&max_h=0.02&cols=kind,start,proc&limit=32",
}

// coldKinds and coldCols are dealt to cold scans from shuffled decks,
// so any sweepCold consecutive cold scans use every kind and every column
// set equally often: which blocks a scan decodes depends mostly on its
// kind, and dealing evenly keeps a sweep's work the same from seed to
// seed while the windows and machines still vary.
var coldKinds = []string{"Read", "Write", "Create", "Close", "Cleanup", "FastRead",
	"FastWrite", "QueryInformation", "SetInformation", "DirectoryControl",
	"PagingRead", "PagingWrite", "ReadAhead", "LazyWrite", "SetEndOfFile",
	"FastQueryBasicInfo"}

var coldCols = []string{"kind,start", "kind,start,end", "kind,start,offset,length",
	"kind,start,fileid,status"}

const (
	coldWindowH  = 0.02 // hours
	coldMachines = 4
)

// mix draws the workload's queries from its seed. Every cold scan is
// distinct from every other query of the run.
type mix struct {
	rng         *rand.Rand
	machines    []string
	seen        map[string]bool
	kinds, cols []int // decks being dealt
}

func newMix(seed uint64, machines []string) *mix {
	m := &mix{rng: rand.New(rand.NewPCG(seed, 0x9e37)), machines: machines, seen: map[string]bool{}}
	for _, h := range hotScans {
		m.seen[h] = true
	}
	return m
}

// deal takes the next card from deck, reshuffling 0..n-1 when it is empty.
func (m *mix) deal(deck *[]int, n int) int {
	if len(*deck) == 0 {
		*deck = m.rng.Perm(n)
	}
	c := (*deck)[0]
	*deck = (*deck)[1:]
	return c
}

// cold draws a scan no earlier request used: one kind, a fractional-hour
// window and four machines.
func (m *mix) cold() request {
	kind := coldKinds[m.deal(&m.kinds, len(coldKinds))]
	cols := coldCols[m.deal(&m.cols, len(coldCols))]
	for {
		q := url.Values{}
		q.Set("kinds", kind)
		lo := m.rng.Float64() * (corpusHours - coldWindowH)
		q.Set("min_h", strconv.FormatFloat(lo, 'f', 6, 64))
		q.Set("max_h", strconv.FormatFloat(lo+coldWindowH, 'f', 6, 64))
		var sel []string
		for _, i := range m.rng.Perm(len(m.machines))[:coldMachines] {
			sel = append(sel, m.machines[i])
		}
		q.Set("machine", strings.Join(sel, ","))
		q.Set("cols", cols)
		q.Set("limit", "32")
		path := "/v1/scan?" + q.Encode()
		if !m.seen[path] {
			m.seen[path] = true
			return request{"cold", path}
		}
	}
}

func (m *mix) next() request {
	switch x := m.rng.Float64(); {
	case x < 0.70:
		return request{"hot", hotScans[m.rng.IntN(len(hotScans))]}
	case x < 0.90:
		return m.cold()
	default:
		return request{"report", "/v1/report?artifact=" + queryArtifacts[m.rng.IntN(len(queryArtifacts))]}
	}
}

// schedule draws n Poisson arrivals at rate per second.
func (m *mix) schedule(rate float64, n int) ([]request, []time.Duration) {
	reqs := make([]request, n)
	dues := make([]time.Duration, n)
	var t float64
	for i := range reqs {
		reqs[i] = m.next()
		dues[i] = time.Duration(t * float64(time.Second))
		t += m.rng.ExpFloat64() / rate
	}
	return reqs, dues
}

// response is one request's outcome.
type response struct {
	request
	status int
	sum    string // SHA-256 of the body
	err    error
	Arrival
}

// loadgen drives a service through at most conns keep-alive connections.
type loadgen struct {
	client *http.Client
	probe  *Probe
	seq    atomic.Uint64
}

func newLoadgen(p *Probe) *loadgen {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &loadgen{client: &http.Client{Transport: tr, Timeout: 60 * time.Second}, probe: p}
}

func (g *loadgen) close() { g.client.CloseIdleConnections() }

// drive sends reqs[i] at dues[i] after its start, open loop: a request
// whose connection is busy waits, and its latency counts from when it
// was due. All-zero dues make it a closed loop over conns connections.
// It returns the outcomes in schedule order and whether it gave up
// because the generator fell more than abandonLag behind; requests it
// never sent have OK set and Start = End = +1 h, so they count as
// backlog and blow the latency limit without counting as failures.
func (g *loadgen) drive(base string, reqs []request, dues []time.Duration) ([]response, bool) {
	out := make([]response, len(reqs))
	work := make(chan int)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				out[i].Start = time.Since(t0)
				g.do(base, &out[i])
				out[i].End = time.Since(t0)
			}
		}()
	}
	abandoned := false
	for i, r := range reqs {
		out[i].request, out[i].Due = r, dues[i]
		if abandoned {
			out[i].OK, out[i].Start, out[i].End = true, time.Hour, time.Hour
			continue
		}
		if d := dues[i] - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		work <- i
		if time.Since(t0)-dues[i] > abandonLag {
			abandoned = true
		}
	}
	close(work)
	wg.Wait()
	return out, abandoned
}

func (g *loadgen) do(base string, r *response) {
	tm := g.probe.request(r.class, r.path, g.seq.Add(1))
	defer tm.done()
	resp, err := g.client.Get(base + r.path)
	if err != nil {
		r.err = err
		return
	}
	defer resp.Body.Close()
	h := sha256.New()
	if _, err := io.Copy(h, resp.Body); err != nil {
		r.err = err
		return
	}
	r.status = resp.StatusCode
	r.sum = hex.EncodeToString(h.Sum(nil))
	r.OK = r.status == http.StatusOK
	tm.annotate("status", int64(r.status))
}

// buildFixture saves the pinned seed's study corpus columnar into dir.
// It runs in a child process so the query run's peak RSS is the
// service's.
func buildFixture(dir string) error {
	st := newStudy(studySpec(pinnedSeed), nil)
	if err := st.run(); err != nil {
		return err
	}
	return st.save(dir)
}

func makeFixture(o Options) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(o.Work, "fixture")
	cmd := exec.Command(self, "-fixture", dir)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("fixture: %w", err)
	}
	return dir, nil
}

// queryRun accumulates outcomes for the gate.
type queryRun struct {
	*Run
	bodies map[string]string // path → first body digest
	once   map[string]int    // path → times seen
}

// check records responses: every one must be 200, and every response to
// one path must carry the same bytes, cold or cached, on any service
// over the corpus — except the known-defect artifact.
func (q *queryRun) check(rs []response) {
	for _, r := range rs {
		if r.Start == time.Hour {
			continue // never sent
		}
		q.Attempted++
		if r.err != nil || r.status != http.StatusOK {
			q.Failed++
			if len(q.Problems) < 20 {
				q.fail("%s: status %d %v", r.path, r.status, r.err)
			}
			continue
		}
		q.once[r.path]++
		prev, ok := q.bodies[r.path]
		if !ok {
			q.bodies[r.path] = r.sum
			continue
		}
		if prev != r.sum {
			if r.path == "/v1/report?artifact="+knownDefect {
				continue
			}
			q.Failed++
			q.fail("%s: body differs between responses", r.path)
		}
	}
}

func runQuery(o Options) (*Run, error) {
	dir, err := makeFixture(o)
	if err != nil {
		return nil, err
	}
	q := &queryRun{Run: newRun(), bodies: map[string]string{}, once: map[string]int{}}
	var p *Probe
	if o.Trace {
		p = newProbe()
	}
	tm := p.timer("query")
	m := q.Metrics

	// Set-up: open the corpus and serve it until the first healthy
	// response, several times; the last service is the one measured.
	sp := tm.child("setup")
	var (
		qc         *QueryCorpus
		srv        *Server
		setups     []float64
		opens      []float64
		setupProbe *Probe
	)
	for i := 0; i < setupRounds; i++ {
		if srv != nil {
			srv.close()
			qc, srv = nil, nil
			runtime.GC()
		}
		if i == setupRounds-1 {
			setupProbe = p // only the kept corpus reports to the registry
		}
		t := time.Now()
		if qc, err = openQueryCorpus(dir, setupProbe); err != nil {
			return nil, err
		}
		opens = append(opens, time.Since(t).Seconds())
		if srv, err = serve(qc, workers, p); err != nil {
			return nil, err
		}
		if err := waitHealthy(srv.URL); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	sp.done()
	defer func() { srv.close() }()
	m["setup_s"] = median(setups)
	if pinsErr != nil {
		q.fail("%v", pinsErr)
	} else if qc.sha() != pins.QueryCorpus {
		q.fail("pinned corpus sha256: got %.16s want %.16s", qc.sha(), pins.QueryCorpus)
	}

	sweep := sweepList(newMix(pinnedSeed, qc.machines()))
	mx := newMix(o.Seed, qc.machines())
	for _, r := range sweep {
		mx.seen[r.path] = true
	}

	// Cold sweeps: a fresh service answers the sweep list closed loop.
	var lp *layerProbe
	var sweeps []float64
	sweepOnce := func(probe *Probe) (float64, error) {
		s, err := serve(qc, workers, probe)
		if err != nil {
			return 0, err
		}
		defer s.close()
		g := newLoadgen(probe)
		defer g.close()
		t := time.Now()
		rs, _ := g.drive(s.URL, sweep, make([]time.Duration, len(sweep)))
		d := time.Since(t).Seconds()
		q.check(rs)
		return d, nil
	}
	measureStart := time.Now()
	if o.Trace {
		for _, n := range perLayerNames() {
			m[n] = 0
		}
		var base []float64
		for len(base) < minSweeps {
			d, err := sweepOnce(nil)
			if err != nil {
				return nil, err
			}
			base = append(base, d)
		}
		if lp, err = startLayerProbe(); err != nil {
			return nil, err
		}
		sp = tm.child("sweep")
		traced, err := sweepOnce(p)
		sp.done()
		if err != nil {
			return nil, err
		}
		m["bench.trace_overhead_frac"] = traced/median(base) - 1
	} else {
		for len(sweeps) < minSweeps || time.Since(measureStart).Seconds() < o.Seconds*sweepFrac {
			d, err := sweepOnce(nil)
			if err != nil {
				return nil, err
			}
			sweeps = append(sweeps, d)
		}
		m["run_s"] = median(sweeps)
		q.Info["run_s.samples"] = fmt.Sprint(sweeps)
	}

	// Warm the measured service: the hot set and every artifact once.
	sp = tm.child("warm")
	var warm []request
	for _, h := range hotScans {
		warm = append(warm, request{"hot", h})
	}
	for _, a := range queryArtifacts {
		warm = append(warm, request{"report", "/v1/report?artifact=" + a})
	}
	g := newLoadgen(p)
	defer g.close()
	rs, _ := g.drive(srv.URL, warm, make([]time.Duration, len(warm)))
	q.check(rs)
	sp.done()

	// Open loop: the reference rate, then the ladder.
	rate := func(r float64, n int) (Rung, []response) {
		rsp := tm.child(fmt.Sprintf("rate-%g", r))
		defer rsp.done()
		reqs, dues := mx.schedule(r, n)
		rs, abandoned := g.drive(srv.URL, reqs, dues)
		q.check(rs)
		arr := make([]Arrival, len(rs))
		for i := range rs {
			arr[i] = rs[i].Arrival
		}
		rung := accountRung(arr, dues[len(dues)-1])
		q.Info[fmt.Sprintf("rung.%04.0f", r)] = fmt.Sprintf("sent=%d failed=%d p50=%.3gms p99=%s lag_max=%s backlog=%d abandoned=%t sustained=%t",
			rung.Sent, rung.Failed, rung.P50.Value, rung.P99, rung.LagMax.Round(time.Millisecond),
			rung.Backlog, abandoned, rung.Sustained(latencyMS))
		return rung, rs
	}
	ref, refResp := rate(refRate, refRequests)
	maxRPS := 0.0
	if ref.Sustained(latencyMS) {
		maxRPS = refRate
		for _, r := range ladder {
			rung, _ := rate(r, max(1, int(r*o.Seconds*rungFrac)))
			if !rung.Sustained(latencyMS) {
				break
			}
			maxRPS = r
		}
	}

	// Every distinct query answered once so far, asked again: the cached
	// body must equal the cold one.
	sp = tm.child("verify")
	var again []request
	for _, path := range sortedKeys(q.once) {
		if q.once[path] == 1 {
			again = append(again, request{"verify", path})
		}
	}
	rs, _ = g.drive(srv.URL, again, make([]time.Duration, len(again)))
	q.check(rs)
	sp.done()
	total := tm.done()

	q.Info["query_p50_ms"] = fmt.Sprintf("%.4g ms at %d req/s (n=%d)", ref.P50.Value, refRate, ref.P50.N)
	q.Info["query_p99_ms"] = fmt.Sprintf("%.4g ms at %d req/s (n=%d, %d beyond)", ref.P99.Value, refRate, ref.P99.N, ref.P99.Beyond)
	q.Info["query_max_rps"] = fmt.Sprintf("%g req/s (p99 ≤ %d ms, no failures, no growing backlog)", maxRPS, latencyMS)
	q.Info["measure_s"] = fmt.Sprintf("%.1f", time.Since(measureStart).Seconds())
	if !ref.P99.OK() {
		q.fail("reference p99 rests on %d samples beyond it, want ≥ %d", ref.P99.Beyond, minBeyond)
	}
	if o.Trace {
		if err := lp.finish(m); err != nil {
			return nil, err
		}
		queryLayers(m, p, opens, ref, refResp, maxRPS)
		m["bench.span_coverage_frac"] = tm.covered() / total
		if err := p.writeChromeTrace(traceFile(o)); err != nil {
			return nil, err
		}
	}
	q.Notes = append(q.Notes, fmt.Sprintf("known defect: %s artifact bodies are not compared", knownDefect))
	return q.Run, nil
}

// sweepList is the closed-loop cold sweep: the hot set, every artifact
// and sweepCold distinct cold scans, in a shuffled order. Every run
// sweeps the same list, drawn from the pinned seed: which scans a sweep
// holds moves its cost by a tenth (seed 53's took 15 % longer than
// others' in repeated runs), so run_s times fixed work and the run's
// seed varies the open-loop stream.
func sweepList(mx *mix) []request {
	var l []request
	for _, h := range hotScans {
		l = append(l, request{"hot", h})
	}
	for _, a := range queryArtifacts {
		l = append(l, request{"report", "/v1/report?artifact=" + a})
	}
	for i := 0; i < sweepCold; i++ {
		l = append(l, mx.cold())
	}
	mx.rng.Shuffle(len(l), func(i, j int) { l[i], l[j] = l[j], l[i] })
	return l
}

func waitHealthy(base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("service not healthy after 10 s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// queryLayers fills the per-layer metrics of a traced query run.
func queryLayers(m map[string]float64, p *Probe, opens []float64, ref Rung, rs []response, maxRPS float64) {
	m["query.open_s"] = opens[len(opens)-1]
	m["core.load_s"] = opens[len(opens)-1]
	m["query.p50_ms"] = ref.P50.Value
	m["query.p99_ms"] = ref.P99.Value
	m["query.max_rps"] = maxRPS
	hits, misses := p.counter("query_cache_hits_total"), p.counter("query_cache_misses_total")
	if hits+misses > 0 {
		m["query.cache_hit_frac"] = hits / (hits + misses)
	}
	m["query.cache_evictions"] = p.counter("query_cache_evictions_total")
	m["query.rejected"] = p.counter("query_rejected_total")
	m["query.timeouts"] = p.counter("query_timeouts_total")
	byClass := map[string][]float64{}
	for _, r := range rs {
		if r.OK && r.Start != time.Hour {
			byClass[r.class] = append(byClass[r.class], float64(r.End-r.Start)/float64(time.Millisecond))
		}
	}
	m["query.scan_cold_p50_ms"] = percentile(byClass["cold"], 50).Value
	m["query.scan_cold_p99_ms"] = percentile(byClass["cold"], 99).Value
	m["query.scan_hit_p50_ms"] = percentile(byClass["hot"], 50).Value
	m["query.report_p99_ms"] = percentile(byClass["report"], 99).Value
	wait := append(p.childDurations("scan", "admit"), p.childDurations("report", "admit")...)
	m["query.admission_wait_p99_ms"] = percentile(wait, 99).Value
	m["loadgen.lag_max_ms"] = float64(ref.LagMax) / float64(time.Millisecond)
	m["loadgen.backlog"] = float64(ref.Backlog)
	colstoreScanLayers(m, p)
	if c := p.childDurations("report", "compute"); len(c) > 0 {
		m["report.compute_s"] = percentile(c, 100).Value / 1e3
	}
}
