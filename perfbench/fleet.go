package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"
)

// fleetSpec is the fleet-dirty workload's fleet: 16 machines of the
// paper's mix for 20 simulated minutes, run and finalized, not saved.
// Longer runs let the seed's own heavy tail in: at 30 minutes seed 31
// grew an 11.5 s shard of its own.
func fleetSpec(seed uint64) StudySpec {
	return StudySpec{Seed: seed, Machines: 16, Minutes: 20, Workers: workers}
}

// Compaction sizing. A burst streams compactBytes into a temp file in
// one inline burst, so its dirty pages outgrow the 16 MB cache and every
// further page walks the whole dirty tail: a burst costs the square of
// its size. This is the mail-compaction pattern that, left to the seed,
// strikes one machine in some seeds and none in others (16 machines ×
// 45 min: an 8 s shard at seed 1, none over 1.1 s at seeds 2–6).
// Pinning it to one machine makes every seed exercise the same
// mechanism. Bursts are minutes apart: the lazy writer must flush one
// burst's pages before the next, or each burst walks all earlier ones
// too (bursts 2 s apart made the shard 26–56 s). The machine is the
// first in fleet order, so the straggler starts at once and, outlasting
// the other fifteen shards on the second worker, alone sets the wall
// time.
const (
	compactMachine = "walk-up-01"
	compactBytes   = 56 << 20
	compactBursts  = 7
)

// compactionFor spreads the bursts over minutes 2–18 with seeded jitter.
func compactionFor(seed uint64) Compaction {
	rng := rand.New(rand.NewPCG(seed, 0xd1a7))
	c := Compaction{Machine: compactMachine, Bytes: compactBytes}
	step := 16 * time.Minute / compactBursts
	for i := 0; i < compactBursts; i++ {
		at := 2*time.Minute + time.Duration(i)*step + time.Duration(rng.Int64N(int64(step/2)))
		c.Times = append(c.Times, at)
	}
	return c
}

type fleetOutcome struct {
	total   float64
	build   float64
	run     float64
	streams map[string]string
	counts  Counts
	names   []string
	shards  []float64
}

func fleetOnce(seed uint64, p *Probe) (*fleetOutcome, error) {
	u := &fleetOutcome{}
	tm := p.timer("fleet-dirty")
	b := tm.child("build")
	st := newStudy(fleetSpec(seed), p)
	err := st.addCompaction(compactionFor(seed), seed)
	u.build = b.done()
	if err != nil {
		return nil, err
	}
	r := tm.child("run")
	err = st.run()
	u.run = r.done()
	u.total = tm.done()
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	if u.streams, err = st.streamSums(); err != nil {
		return nil, err
	}
	u.counts = st.counts()
	u.names, u.shards = st.shardWalls()
	return u, nil
}

func runFleetDirty(o Options) (*Run, error) {
	r := newRun()
	var (
		outs []*fleetOutcome
		idx  []int
	)
	run := func(i int, p *Probe) (float64, error) {
		u, err := fleetOnce(subSeed(o.Seed, i), p)
		runtime.GC()
		if err != nil {
			return 0, err
		}
		outs, idx = append(outs, u), append(idx, i)
		return u.total, nil
	}
	if o.Trace {
		p, err := tracedRun(r.Metrics, run)
		if err != nil {
			return nil, err
		}
		u := outs[len(outs)-1]
		m := r.Metrics
		m["core.build_s"] = u.build
		fleetLayers(m, u.run, u.shards, u.counts)
		m["bench.span_coverage_frac"] = (u.build + u.run) / u.total
		slow, wall := "", 0.0
		for i, w := range u.shards {
			if w > wall {
				slow, wall = u.names[i], w
			}
		}
		r.Info["fleet.slowest_shard"] = fmt.Sprintf("%s %.3fs", slow, wall)
		if err := p.writeChromeTrace(traceFile(o)); err != nil {
			return nil, err
		}
	} else {
		totals, err := repeat(o.Seconds, func(i int) (float64, error) { return run(i, nil) })
		if err != nil {
			return nil, err
		}
		r.Metrics["run_s"] = median(totals)
		r.Info["run_s.samples"] = fmt.Sprint(totals)
	}
	ds := make([]digests, len(outs))
	for k, u := range outs {
		ds[k] = digests{Streams: u.streams, Counts: u.counts}
	}
	gatePasses(r, o.Seed, idx, ds, pins.Fleet)
	return r, nil
}
