package main

import (
	"fmt"
	"math/rand/v2"
	"time"
)

// rotation is how many distinct studies a study or fleet-dirty run
// cycles through. One simulated study's cost varies from seed to seed
// by tenths (one machine's heavy tail, the size of the generated file
// systems), so a run times several studies drawn from its seed and
// reports the median, which one study's heavy tail cannot move; every
// pass after the first rotation repeats an earlier study, which is what
// the exact-count check compares.
const rotation = 4

// subSeed is the study seed of a run's i-th pass: the run seed itself,
// then seeds drawn from it, repeating every rotation passes.
func subSeed(seed uint64, i int) uint64 {
	k := i % rotation
	if k == 0 {
		return seed
	}
	return rand.New(rand.NewPCG(seed, uint64(k))).Uint64()
}

// repeat runs pass(0), pass(1), … while the next pass would still end
// within seconds (judged by the last one), and at least rotation+1
// times, and returns each pass's measured seconds.
func repeat(seconds float64, pass func(i int) (float64, error)) ([]float64, error) {
	start := time.Now()
	var out []float64
	for len(out) <= rotation || time.Since(start).Seconds()+out[len(out)-1] <= seconds {
		d, err := pass(len(out))
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// tracedRun is the traced run of study or fleet-dirty: the first study
// untraced twice, the second pass being the warm baseline, then the same
// study traced with a CPU profile. It zero-fills every per-layer metric,
// fills the Go runtime, cpu_s.* and trace-overhead ones, and returns the
// traced pass's probe. pass(i, p) runs pass i and returns its seconds.
func tracedRun(m map[string]float64, pass func(i int, p *Probe) (float64, error)) (*Probe, error) {
	for _, n := range perLayerNames() {
		m[n] = 0
	}
	if _, err := pass(0, nil); err != nil {
		return nil, err
	}
	base, err := pass(rotation, nil)
	if err != nil {
		return nil, err
	}
	p := newProbe()
	lp, err := startLayerProbe()
	if err != nil {
		return nil, err
	}
	traced, err := pass(2*rotation, p)
	if err != nil {
		return nil, err
	}
	if err := lp.finish(m); err != nil {
		return nil, err
	}
	m["bench.trace_overhead_frac"] = traced/base - 1
	return p, nil
}

// digests are the checked outputs of one pass.
type digests struct {
	Streams  map[string]string `json:"streams"`            // machine → stored-stream SHA-256
	Sections map[string]string `json:"sections,omitempty"` // section → rendered-text SHA-256
	Counts   Counts            `json:"counts"`
}

// gatePasses checks the passes of a run, ds[k] being pass idx[k]: a
// pass repeating an earlier study must reproduce its digests and counts
// exactly, and on the pinned seed the first rotation must match the
// pins. The known-defect section is exempt. Any failed check fails the
// run once.
func gatePasses(r *Run, seed uint64, idx []int, ds []digests, pinned []digests) {
	first := map[int]int{} // study → position of its first pass
	for k, i := range idx {
		if f, ok := first[i%rotation]; ok {
			compareDigests(r, fmt.Sprintf("pass %d vs pass %d", i, idx[f]), ds[f], ds[k])
		} else {
			first[i%rotation] = k
		}
		if seed == pinnedSeed && i < rotation {
			if pinsErr != nil || i >= len(pinned) {
				r.fail("no pinned digests for pass %d: %v", i, pinsErr)
				continue
			}
			compareDigests(r, fmt.Sprintf("pass %d vs pinned", i), pinned[i], ds[k])
		}
	}
	r.Attempted = len(ds)
	if len(r.Problems) > 0 {
		r.Failed = 1
	}
}

func compareDigests(r *Run, what string, want, got digests) {
	compareMaps(r, what+" stream", want.Streams, got.Streams, "")
	compareMaps(r, what+" section", want.Sections, got.Sections, knownDefect)
	if want.Counts != got.Counts {
		r.fail("%s counts differ: got %+v want %+v", what, got.Counts, want.Counts)
	}
}

func compareMaps(r *Run, what string, want, got map[string]string, exempt string) {
	for _, k := range sortedKeys(want) {
		if k != exempt && got[k] != want[k] {
			r.fail("%s %s: got %.16s want %.16s", what, k, got[k], want[k])
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok && k != exempt {
			r.fail("%s %s: unexpected", what, k)
		}
	}
}
