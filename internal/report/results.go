// Package report computes and renders the paper's evaluation artefacts:
// Table 1 (summary of observations), Table 2 (user activity), Table 3
// (access patterns) and Figures 1–14, each as a text table suitable for
// side-by-side comparison with the published curves. EXPERIMENTS.md is
// generated from these renderers.
package report

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"time"

	"repro/internal/analysis"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/stats"
)

// Results holds every derived measure for a study.
type Results struct {
	DS *analysis.DataSet

	// PerMachine instance tables, keyed by machine name.
	PerMachine map[string][]*analysis.Instance
	// All is the concatenated instance table.
	All []*analysis.Instance

	// Lifetimes merged across machines.
	Lifetimes analysis.LifetimeStats
	// Controls and Cache merged across machines.
	Controls analysis.ControlStats
	Cache    analysis.CacheMeasures
	Reuse    analysis.ReuseStats

	// FastIO shares per machine.
	ReadShares, WriteShares []float64
}

// Section is one named artifact of the rendered report.
type Section struct {
	Name   string
	Render func() string
}

// Sections lists every artifact of the full report in publication order,
// under the names fsreport and the query service's /v1/report accept;
// snaps feeds §5. The full report is each Render's text followed by a
// newline, in this order.
func (r *Results) Sections(snaps []*snapshot.Snapshot) []Section {
	return []Section{
		{"table1", r.Table1}, {"table2", r.Table2}, {"table3", r.Table3},
		{"figure1", r.Figure1}, {"figure2", r.Figure2}, {"figure3", r.Figure3},
		{"figure4", r.Figure4}, {"figure5", r.Figure5}, {"figure6", r.Figure6},
		{"figure7", r.Figure7}, {"figure8", r.Figure8}, {"figure9", r.Figure9},
		{"figure10", r.Figure10}, {"figure11", r.Figure11}, {"figure12", r.Figure12},
		{"figure13", r.Figure13}, {"figure14", r.Figure14},
		{"section5", func() string { return r.Section5(snaps) }},
		{"section6", r.Section6Lifetimes}, {"section8", r.Section8},
		{"section9", r.Section9}, {"section10", r.Section10},
		{"section7", r.Section7SelfSim}, {"process", r.ProcessView},
		{"type", r.TypeView}, {"followups", r.FollowUps},
		{"cachesweep", func() string { return r.CacheSweep([]float64{1, 4, 16}) }},
	}
}

// SectionNames is the names of Sections in publication order. It renders
// nothing, so it needs no computed Results.
func SectionNames() []string {
	secs := (*Results)(nil).Sections(nil) // method values only; none is called
	names := make([]string, len(secs))
	for i, sec := range secs {
		names[i] = sec.Name
	}
	return names
}

// machineMeasures is everything Compute derives from a single machine —
// the unit of the worker fan-out.
type machineMeasures struct {
	ins    []*analysis.Instance
	lt     analysis.LifetimeStats
	c      analysis.ControlStats
	cm     analysis.CacheMeasures
	ru     analysis.ReuseStats
	rs, ws float64
}

// ComputeWorkers builds Results from a data set, fanning machines across
// workers goroutines (0 or 1 = sequential). Output is identical at any
// worker count: the merge runs serially in corpus order over
// slot-indexed results.
func ComputeWorkers(ds *analysis.DataSet, workers int) *Results {
	return ComputeWorkersTrace(ds, workers, nil, nil, nil)
}

// KernelTimers are the per-kernel wall-clock histograms of the compute
// fan-out: each receives one observation (microseconds) per machine per
// kernel, splitting report_compute_machine_us by measure. A nil
// *KernelTimers is a complete no-op.
type KernelTimers struct {
	Instances *obs.Histogram
	Lifetimes *obs.Histogram
	Controls  *obs.Histogram
	Cache     *obs.Histogram
	Reuse     *obs.Histogram
	FastIO    *obs.Histogram
}

// NewKernelTimers builds the bundle on r (nil registry yields nil).
func NewKernelTimers(r *obs.Registry) *KernelTimers {
	if r == nil {
		return nil
	}
	return &KernelTimers{
		Instances: r.Histogram("report_kernel_instances_us", "Wall-clock microseconds building one machine's instance table."),
		Lifetimes: r.Histogram("report_kernel_lifetimes_us", "Wall-clock microseconds for one machine's lifetime scan."),
		Controls:  r.Histogram("report_kernel_controls_us", "Wall-clock microseconds for one machine's control statistics."),
		Cache:     r.Histogram("report_kernel_cache_us", "Wall-clock microseconds for one machine's cache measures."),
		Reuse:     r.Histogram("report_kernel_reuse_us", "Wall-clock microseconds for one machine's reuse statistics."),
		FastIO:    r.Histogram("report_kernel_fastio_us", "Wall-clock microseconds for one machine's FastIO shares."),
	}
}

// ComputeWorkersTrace is ComputeWorkers with optional instrumentation,
// every part nil-safe: perMachine receives one wall-clock observation
// (microseconds) per machine, kt one per machine per kernel, and tr
// records each machine's measure pass as one wall-clock trace (family
// "compute") with a child span per kernel. Trace IDs derive from the
// machine name, so runs over the same corpus produce the same IDs.
// Neither timing nor tracing alters the computed results.
func ComputeWorkersTrace(ds *analysis.DataSet, workers int, perMachine *obs.Histogram, kt *KernelTimers, tr *trace.Tracer) *Results {
	slots := make([]machineMeasures, len(ds.Machines))
	measure := func(i int) {
		mt := ds.Machines[i]
		m := &slots[i]
		start := time.Now()
		// kt may be nil with tracing on (and vice versa): extract the
		// histograms into nil-safe locals so one kernel walk serves every
		// combination.
		var hIns, hLt, hC, hCm, hRu, hF *obs.Histogram
		if kt != nil {
			hIns, hLt, hC, hCm, hRu, hF = kt.Instances, kt.Lifetimes, kt.Controls, kt.Cache, kt.Reuse, kt.FastIO
		}
		root := tr.StartTrace("compute", mt.Name, trace.HashID("compute", mt.Name), nil)
		kernel := func(name string, h *obs.Histogram, f func()) {
			sp := root.Child(name)
			t0 := time.Now()
			f()
			h.ObserveWall(time.Since(t0))
			sp.Finish()
		}
		kernel("instances", hIns, func() { m.ins = mt.Instances() })
		kernel("lifetimes", hLt, func() { m.lt = analysis.Lifetimes(mt) })
		kernel("controls", hC, func() { m.c = analysis.Controls(mt, m.ins) })
		kernel("cache", hCm, func() { m.cm = analysis.Cache(mt, m.ins) })
		kernel("reuse", hRu, func() { m.ru = analysis.Reuse(m.ins) })
		kernel("fastio", hF, func() { m.rs, m.ws = analysis.FastIOShares(mt) })
		root.AnnotateInt("instances", int64(len(m.ins)))
		root.Finish()
		perMachine.ObserveWall(time.Since(start))
	}
	if workers <= 1 {
		for i := range ds.Machines {
			measure(i)
		}
	} else {
		if workers > len(ds.Machines) {
			workers = len(ds.Machines)
		}
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					measure(i)
				}
			}()
		}
		for i := range ds.Machines {
			next <- i
		}
		close(next)
		wg.Wait()
	}

	r := &Results{DS: ds, PerMachine: map[string][]*analysis.Instance{}}
	for mi, mt := range ds.Machines {
		ins := slots[mi].ins
		r.PerMachine[mt.Name] = ins
		r.All = append(r.All, ins...)

		lt := slots[mi].lt
		r.Lifetimes.Samples = append(r.Lifetimes.Samples, lt.Samples...)
		r.Lifetimes.Births += lt.Births
		r.Lifetimes.SurvivorCount += lt.SurvivorCount

		c := slots[mi].c
		r.Controls.Opens += c.Opens
		r.Controls.FailedOpens += c.FailedOpens
		r.Controls.ControlOnly += c.ControlOnly
		r.Controls.NotFoundErrors += c.NotFoundErrors
		r.Controls.CollisionErrors += c.CollisionErrors
		r.Controls.ReadErrors += c.ReadErrors
		r.Controls.Reads += c.Reads
		r.Controls.VolumeMountedOps += c.VolumeMountedOps
		r.Controls.SetEndOfFileOps += c.SetEndOfFileOps

		cm := slots[mi].cm
		r.Cache.Reads += cm.Reads
		r.Cache.ReadsFromCache += cm.ReadsFromCache
		r.Cache.ReadSessions += cm.ReadSessions
		r.Cache.SinglePrefetch += cm.SinglePrefetch
		r.Cache.ReadAheadOps += cm.ReadAheadOps
		r.Cache.LazyWriteOps += cm.LazyWriteOps
		r.Cache.FlushOps += cm.FlushOps
		r.Cache.WriteSessions += cm.WriteSessions
		r.Cache.FlushPerWrite += cm.FlushPerWrite
		r.Cache.CacheDisabledSessions += cm.CacheDisabledSessions
		r.Cache.DataSessions += cm.DataSessions

		ru := slots[mi].ru
		r.Reuse.ReadOnlyPaths += ru.ReadOnlyPaths
		r.Reuse.ReadOnlyReopened += ru.ReadOnlyReopened
		r.Reuse.WriteOnlyPaths += ru.WriteOnlyPaths
		r.Reuse.WriteOnlyReWritten += ru.WriteOnlyReWritten
		r.Reuse.WriteOnlyThenRead += ru.WriteOnlyThenRead
		r.Reuse.ReadWritePaths += ru.ReadWritePaths
		r.Reuse.ReadWriteReopened += ru.ReadWriteReopened

		rs, ws := slots[mi].rs, slots[mi].ws
		r.ReadShares = append(r.ReadShares, rs)
		r.WriteShares = append(r.WriteShares, ws)
	}
	return r
}

// mean of a float slice (0 for empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// cdfTable renders a CDF as aligned columns of (value, cumulative %).
func cdfTable(title, unit string, c *stats.CDF, points int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (n=%d)\n", title, c.N())
	fmt.Fprintf(&b, "  %14s  %8s\n", unit, "cum %")
	for _, p := range c.Points(points, true) {
		fmt.Fprintf(&b, "  %14.4g  %8.1f\n", p.Value, p.Fraction*100)
	}
	return b.String()
}

// quantileLine summarises key CDF marks on one line.
func quantileLine(name string, c *stats.CDF, unit string) string {
	if c.N() == 0 {
		return fmt.Sprintf("  %-28s (no samples)\n", name)
	}
	return fmt.Sprintf("  %-28s p50=%.4g%s p75=%.4g%s p90=%.4g%s p99=%.4g%s\n",
		name,
		c.Quantile(0.50), unit, c.Quantile(0.75), unit,
		c.Quantile(0.90), unit, c.Quantile(0.99), unit)
}

// machineNames returns sorted machine names.
func (r *Results) machineNames() []string {
	names := make([]string, 0, len(r.PerMachine))
	for n := range r.PerMachine {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// HoldCDF builds the hold-time CDF (ms) under a predicate.
func (r *Results) HoldCDF(pred func(*analysis.Instance) bool) *stats.CDF {
	return stats.NewCDF(analysis.HoldTimes(r.All, pred))
}

// OpenGapSampleMachine picks the machine with the most records (the
// "randomly chosen" single trace file of Figures 8–10).
func (r *Results) OpenGapSampleMachine() *analysis.MachineTrace {
	var best *analysis.MachineTrace
	for _, mt := range r.DS.Machines {
		if best == nil || mt.Len() > best.Len() {
			best = mt
		}
	}
	return best
}

// TotalRecords counts trace records in the data set.
func (r *Results) TotalRecords() int {
	n := 0
	for _, mt := range r.DS.Machines {
		n += mt.Len()
	}
	return n
}

// Duration returns the trace time span. Records are sorted by start
// time, so each machine contributes its first and last record only.
func (r *Results) Duration() sim.Duration {
	var lo, hi sim.Time
	first := true
	for _, mt := range r.DS.Machines {
		if mt.Len() == 0 {
			continue
		}
		if t := mt.FirstStart(); first || t < lo {
			lo = t
		}
		if t := mt.LastStart(); first || t > hi {
			hi = t
		}
		first = false
	}
	return hi.Sub(lo)
}
