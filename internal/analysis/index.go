package analysis

import (
	"runtime"
	"sync"

	"repro/internal/sim"
	"repro/internal/tracefmt"
)

// This file implements the corpus index of the query engine. The paper's
// §4 pipeline reduced the trace to a star schema once and answered every
// question from it; our equivalent is an inverted index over the trace
// fact table — its row numbers grouped by event kind, in start-time
// order — so the heavy figures (lifetimes, §7 self-similarity, cache
// sweeps, request-class splits) select exactly the rows they need
// instead of rescanning the whole table per figure.

// MachineIndex is one machine's inverted index: for each of the 54 event
// kinds, the row numbers of its records in the trace table, ascending.
// Because the table is sorted by start time, position order is time
// order.
type MachineIndex struct {
	kinds [tracefmt.NumEventKinds][]int32
	// openTimes are the start timestamps of every open attempt
	// (EvCreate/EvCreateFailed), ascending — the Figure 8–10 sample
	// series, precomputed because four figures and the §7 extension all
	// start from it.
	openTimes []sim.Time
}

// Index returns the machine's inverted index, building it on first use
// from two narrow columns of the trace table, kind and start.
func (mt *MachineTrace) Index() *MachineIndex {
	mt.idxOnce.Do(func() {
		ix := &MachineIndex{}
		kinds, starts := mt.tab.Kinds, mt.tab.Starts
		// Size the per-kind lists in one counting pass so the big kinds
		// (reads, writes) allocate exactly once.
		var counts [tracefmt.NumEventKinds]int32
		for _, k := range kinds {
			if int(k) < tracefmt.NumEventKinds {
				counts[k]++
			}
		}
		for k, c := range counts {
			if c > 0 {
				ix.kinds[k] = make([]int32, 0, c)
			}
		}
		for i, k := range kinds {
			if int(k) >= tracefmt.NumEventKinds {
				continue
			}
			ix.kinds[k] = append(ix.kinds[k], int32(i))
			if k == tracefmt.EvCreate || k == tracefmt.EvCreateFailed {
				ix.openTimes = append(ix.openTimes, starts[i])
			}
		}
		mt.idx = ix
	})
	return mt.idx
}

// OfKind returns the positions of all records of kind k, ascending. The
// slice is shared — callers must not mutate it.
func (ix *MachineIndex) OfKind(k tracefmt.EventKind) []int32 {
	if int(k) >= tracefmt.NumEventKinds {
		return nil
	}
	return ix.kinds[k]
}

// Select merges the positions of several kinds into one ascending list —
// the record subset a scan over those kinds visits, in the exact order
// the full-stream scan would visit them. With a single populated kind
// the shared per-kind list is returned; callers must not mutate it.
func (ix *MachineIndex) Select(kinds ...tracefmt.EventKind) []int32 {
	lists := make([][]int32, 0, len(kinds))
	total := 0
	for _, k := range kinds {
		if l := ix.OfKind(k); len(l) > 0 {
			lists = append(lists, l)
			total += len(l)
		}
	}
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	out := make([]int32, 0, total)
	pos := make([]int, len(lists))
	for len(out) < total {
		best := -1
		var bv int32
		for li, l := range lists {
			if pos[li] < len(l) && (best < 0 || l[pos[li]] < bv) {
				best, bv = li, l[pos[li]]
			}
		}
		out = append(out, bv)
		pos[best]++
	}
	return out
}

// OpenTimes returns the start timestamps of every open attempt,
// ascending. The slice is shared — callers must not mutate it.
func (ix *MachineIndex) OpenTimes() []sim.Time { return ix.openTimes }

// Index is the corpus-level query surface: every machine's inverted
// index, built in parallel on first use and cached on the DataSet.
type Index struct {
	// ByMachine maps machine name → its index.
	ByMachine map[string]*MachineIndex
	// Machines preserves corpus order (ByMachine is unordered).
	Machines []*MachineIndex
}

// Index returns the corpus index, building every machine's index in
// parallel on first use. Subsequent calls return the cached value.
func (ds *DataSet) Index() *Index {
	ds.idxOnce.Do(func() {
		ix := &Index{ByMachine: make(map[string]*MachineIndex, len(ds.Machines))}
		workers := runtime.GOMAXPROCS(0)
		if workers > len(ds.Machines) {
			workers = len(ds.Machines)
		}
		if workers <= 1 {
			for _, mt := range ds.Machines {
				mt.Index()
			}
		} else {
			var wg sync.WaitGroup
			next := make(chan *MachineTrace)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for mt := range next {
						mt.Index()
					}
				}()
			}
			for _, mt := range ds.Machines {
				next <- mt
			}
			close(next)
			wg.Wait()
		}
		for _, mt := range ds.Machines {
			ix.ByMachine[mt.Name] = mt.idx
			ix.Machines = append(ix.Machines, mt.idx)
		}
		ds.idx = ix
	})
	return ds.idx
}
