package main

// Every call into the program under test lives in this file, so a change
// to the program's entry points (for instance collapsing the
// …Obs/…Timed/…Trace variants into one call with options) changes the
// benchmark in one place. The rest of the benchmark sees only the types
// and functions below, plain Go values and HTTP.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/ntos/types"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/query"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Probe is the instrumentation a traced run switches on: the program's
// metric registry and span tracer, which the benchmark also records its
// own spans into. A nil *Probe is an untraced run; every method is
// nil-safe, as the program's hooks are.
type Probe struct {
	reg *obs.Registry
	tr  *trace.Tracer
}

func newProbe() *Probe {
	// The flight recorder must keep every request of an open-loop run.
	return &Probe{reg: obs.NewRegistry(), tr: trace.New(trace.Config{Recent: 1 << 17})}
}

func (p *Probe) registry() *obs.Registry {
	if p == nil {
		return nil
	}
	return p.reg
}

func (p *Probe) tracer() *trace.Tracer {
	if p == nil {
		return nil
	}
	return p.tr
}

// Timer times one stretch of the benchmark's work — a run, a public
// call, a stage, a request — and, in a traced run, records it as a span
// of the benchmark's own. Its wall time is measured either way.
type Timer struct {
	sp     *trace.Span
	start  time.Time
	name   string
	parent *Timer
	took   map[string]float64 // children's seconds by name
}

// timer opens a benchmark trace named name.
func (p *Probe) timer(name string) *Timer {
	return &Timer{sp: p.tracer().StartTrace("bench", name, trace.HashID("bench", name), nil),
		start: time.Now(), name: name}
}

// request opens the trace of one load-generator request, tagged by class.
func (p *Probe) request(class, path string, seq uint64) *Timer {
	sp := p.tracer().StartTrace("request", class, trace.MixID(trace.HashID("request", path), seq), nil)
	sp.Annotate("path", path)
	return &Timer{sp: sp, start: time.Now(), name: class}
}

// child opens a child stretch of t.
func (t *Timer) child(name string) *Timer {
	return &Timer{sp: t.sp.Child(name), start: time.Now(), name: name, parent: t}
}

func (t *Timer) annotate(key string, v int64) { t.sp.AnnotateInt(key, v) }

// done ends t and returns its wall seconds.
func (t *Timer) done() float64 {
	t.sp.Finish()
	d := time.Since(t.start).Seconds()
	if t.parent != nil {
		if t.parent.took == nil {
			t.parent.took = map[string]float64{}
		}
		t.parent.took[t.name] += d
	}
	return d
}

// covered is the wall seconds t's finished children account for.
func (t *Timer) covered() float64 {
	var sum float64
	for _, d := range t.took {
		sum += d
	}
	return sum
}

// counter sums every series of a counter or gauge family.
func (p *Probe) counter(family string) float64 {
	var sum float64
	for _, f := range p.registry().TakeSnapshot().Families {
		if f.Name != family {
			continue
		}
		for _, s := range f.Series {
			if s.Value != nil {
				sum += *s.Value
			}
		}
	}
	return sum
}

// histSumSeconds is the summed observations of a microsecond histogram
// family, in seconds.
func (p *Probe) histSumSeconds(family string) float64 {
	var us int64
	for _, f := range p.registry().TakeSnapshot().Families {
		if f.Name != family {
			continue
		}
		for _, s := range f.Series {
			if s.Hist != nil {
				us += s.Hist.Sum
			}
		}
	}
	return float64(us) / 1e6
}

// childDurations returns the durations (ms) of spans named child inside
// the recorded traces of one family.
func (p *Probe) childDurations(family, child string) []float64 {
	var out []float64
	for _, t := range p.tracer().Recent(1 << 17) {
		if t.Family != family {
			continue
		}
		for _, s := range t.Spans {
			if s.Name == child {
				out = append(out, float64(s.Duration())/1e6)
			}
		}
	}
	return out
}

// writeChromeTrace exports every recorded span as Chrome trace JSON.
func (p *Probe) writeChromeTrace(path string) error {
	if p == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.tr.WriteTraceEvents(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// StudySpec is a study configuration: fsreport's (network share plus a
// day-0 snapshot) at a chosen size.
type StudySpec struct {
	Seed     uint64
	Machines int
	Minutes  float64
	Workers  int
	Columnar bool
}

// Study wraps one core.Study.
type Study struct{ s *core.Study }

func newStudy(spec StudySpec, p *Probe) *Study {
	return &Study{core.NewStudy(core.Config{
		Seed:            spec.Seed,
		Machines:        spec.Machines,
		Duration:        sim.FromSeconds(spec.Minutes * 60),
		WithNetwork:     true,
		SnapshotAtStart: true,
		Workers:         spec.Workers,
		Columnar:        spec.Columnar,
		Obs:             p.registry(),
		Trace:           p.tracer(),
	})}
}

func (s *Study) run() error            { return s.s.Run() }
func (s *Study) save(dir string) error { return s.s.Save(dir) }

// Compaction is the fleet-dirty input the benchmark adds to one machine:
// at each of Times (virtual offsets from boot) a process streams Bytes
// into a fresh temp file in 64 KB writes, closes and deletes it. A burst
// runs inline, so the lazy writer cannot clean pages while it lasts.
type Compaction struct {
	Machine string
	Bytes   int64
	Times   []time.Duration
}

// addCompaction schedules c on its machine's shard before Run.
func (s *Study) addCompaction(c Compaction, seed uint64) error {
	for _, n := range s.s.Nodes {
		if n.M == nil || n.M.Name != c.Machine {
			continue
		}
		proc := workload.NewProc(n.M, "compactor", `C:`, sim.NewRNG(seed))
		tmp := n.Layout.TempDir
		for i, at := range c.Times {
			path := fmt.Sprintf(`%s\cmp%04d.tmp`, tmp, i)
			n.Sched.At(sim.Time(sim.FromSeconds(at.Seconds())), func(*sim.Scheduler) {
				h, st := proc.Open(path, types.AccessWrite, types.DispositionCreate, 0, 0)
				if st.IsError() {
					return
				}
				proc.WriteStream(h, c.Bytes, 65536)
				proc.Close(h)
				proc.DeleteFile(path)
			})
		}
		return nil
	}
	return fmt.Errorf("no machine %q in the fleet", c.Machine)
}

// streamSums is each machine's stored-stream SHA-256 (hex).
func (s *Study) streamSums() (map[string]string, error) {
	out := map[string]string{}
	for _, m := range s.s.Store.Machines() {
		sum, err := s.s.Store.StreamSum(m)
		if err != nil {
			return nil, err
		}
		out[m] = hex.EncodeToString(sum[:])
	}
	return out, nil
}

// rowStreamSHAs digests each machine's decoded records the way a
// columnar footer does, for the row ≡ columnar self-check.
func (s *Study) rowStreamSHAs() (map[string]string, error) {
	out := map[string]string{}
	for _, m := range s.s.Store.Machines() {
		recs, err := s.s.Store.Records(m)
		if err != nil {
			return nil, err
		}
		sum := colstore.RowStreamSHA(recs)
		out[m] = hex.EncodeToString(sum[:])
	}
	return out, nil
}

// Counts are the simulated-behaviour counters of one study. They depend
// only on the seed and configuration, so they must repeat exactly.
type Counts struct {
	SimEvents        uint64
	CacheReads       uint64
	CacheReadHits    uint64
	CacheEvicted     uint64
	CacheLazyPages   uint64
	CacheResidentMax uint64
	IrpDispatches    uint64
	FastIOAttempts   uint64
	FastIOSucceeded  uint64
	TraceRecords     uint64
	TraceFlushes     uint64
	TraceOverflows   uint64
	CollectRecords   uint64
	CollectBytes     uint64
	ColstoreBytes    uint64 // saved segment bytes; the caller fills it in
}

func (s *Study) counts() Counts {
	var c Counts
	for _, n := range s.s.Nodes {
		if n.M == nil {
			continue
		}
		c.SimEvents += n.Sched.Ran()
		cs := n.M.Cache.Stats
		c.CacheReads += cs.ReadRequests
		c.CacheReadHits += cs.ReadsFromCache
		c.CacheEvicted += cs.EvictedPages
		c.CacheLazyPages += cs.LazyWritePages
		if r := uint64(n.M.Cache.ResidentPages()); r > c.CacheResidentMax {
			c.CacheResidentMax = r
		}
		io := n.M.IO.Stats
		c.IrpDispatches += io.IrpDispatches
		c.FastIOAttempts += io.FastIoAttempts
		c.FastIOSucceeded += io.FastIoSucceeded
		for _, v := range n.M.Volumes {
			if v.Trace != nil {
				c.TraceRecords += v.Trace.Stats.Records
				c.TraceFlushes += v.Trace.Stats.BufferFlushes
				c.TraceOverflows += v.Trace.Stats.Overflows
			}
		}
	}
	c.CollectRecords = uint64(s.s.Store.TotalRecords())
	c.CollectBytes = uint64(s.s.Store.CompressedBytes())
	return c
}

// shardWalls is each fleet shard's wall-clock run time in seconds, with
// the shard names, in fleet order.
func (s *Study) shardWalls() (names []string, secs []float64) {
	for _, sh := range s.s.Engine.Status().Shards {
		names = append(names, sh.Name)
		secs = append(secs, sh.Wall.Seconds())
	}
	return names, secs
}

// Corpus is a saved study loaded back for analysis.
type Corpus struct{ c *core.Corpus }

func loadCorpus(dir string, p *Probe) (*Corpus, error) {
	c, err := core.LoadCorpusTrace(dir, p.registry(), p.tracer())
	if err != nil {
		return nil, err
	}
	return &Corpus{c}, nil
}

// segmentSHAs is each columnar machine's footer SHA-256 (hex).
func (c *Corpus) segmentSHAs() map[string]string {
	out := map[string]string{}
	for name, seg := range c.c.Segments {
		sum := seg.SHA256()
		out[name] = hex.EncodeToString(sum[:])
	}
	return out
}

// Results are the computed measures of a corpus.
type Results struct {
	r *report.Results
	c *Corpus
}

func compute(c *Corpus, workers int, p *Probe) *Results {
	if p == nil {
		return &Results{report.ComputeWorkers(c.c.DS, workers), c}
	}
	return &Results{report.ComputeWorkersTrace(c.c.DS, workers, nil,
		report.NewKernelTimers(p.reg), p.tr), c}
}

// Section is one rendered artifact of the report, in fsreport's order.
type Section struct {
	Name   string
	Render func() string
}

func (r *Results) sections() []Section {
	res, snaps := r.r, r.c.c.Snaps
	return []Section{
		{"table1", res.Table1}, {"table2", res.Table2}, {"table3", res.Table3},
		{"figure1", res.Figure1}, {"figure2", res.Figure2}, {"figure3", res.Figure3},
		{"figure4", res.Figure4}, {"figure5", res.Figure5}, {"figure6", res.Figure6},
		{"figure7", res.Figure7}, {"figure8", res.Figure8}, {"figure9", res.Figure9},
		{"figure10", res.Figure10}, {"figure11", res.Figure11}, {"figure12", res.Figure12},
		{"figure13", res.Figure13}, {"figure14", res.Figure14},
		{"section5", func() string { return res.Section5(snaps) }},
		{"section6", res.Section6Lifetimes}, {"section8", res.Section8},
		{"section9", res.Section9}, {"section10", res.Section10},
		{"section7", res.Section7SelfSim}, {"process", res.ProcessView},
		{"type", res.TypeView}, {"followups", res.FollowUps},
		{"cachesweep", func() string { return res.CacheSweep([]float64{1, 4, 16}) }},
	}
}

// QueryCorpus is a corpus opened for serving.
type QueryCorpus struct{ c *query.Corpus }

func openQueryCorpus(dir string, p *Probe) (*QueryCorpus, error) {
	c, err := query.OpenCorpusTrace(dir, p.registry(), p.tracer())
	if err != nil {
		return nil, err
	}
	return &QueryCorpus{c}, nil
}

func (q *QueryCorpus) machines() []string { return q.c.Machines() }
func (q *QueryCorpus) sha() string        { return q.c.SHAHex() }

// Server is a query service on a loopback listener.
type Server struct {
	URL  string
	srv  *http.Server
	done chan struct{} // closed when Serve has returned
}

// serve starts a fresh query service (empty result cache, report not
// yet computed) over q with default cache and admission limits.
func serve(q *QueryCorpus, workers int, p *Probe) (*Server, error) {
	svc := query.NewService(q.c, query.Config{
		Workers: workers,
		Obs:     p.registry(),
		Tracer:  p.tracer(),
		Logf:    func(string, ...any) {},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &Server{URL: "http://" + ln.Addr().String(), done: make(chan struct{}),
		srv: &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second}}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns ErrServerClosed once close shuts it down
	}()
	return s, nil
}

// close stops the listener, waits for in-flight requests (up to 10 s;
// one outliving that is cut off) and for the serving goroutine.
func (s *Server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.srv.Shutdown(ctx) != nil {
		s.srv.Close()
	}
	<-s.done
}

// Artifact names served by /v1/report that the query mix requests.
var queryArtifacts = []string{"table1", "table2", "table3", "figure2", "figure5",
	"section5", "section8", "process"}

// knownDefect names the one artifact whose bytes the program does not
// yet reproduce: §5 picks its "one exemplar" change-attribution line by
// ranging over a Go map, so the machine it names varies run to run.
const knownDefect = "section5"

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
