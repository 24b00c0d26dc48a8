package main

import (
	"bytes"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"
)

// layerProbe records, over one traced stretch of work, a CPU profile
// (folded into cpu_s.* by module) and the Go runtime's heap and GC
// figures.
type layerProbe struct {
	prof     bytes.Buffer
	start    []metrics.Sample
	stop     chan struct{}
	wg       sync.WaitGroup
	heapPeak uint64
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func sampleFloat(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

func startLayerProbe() (*layerProbe, error) {
	lp := &layerProbe{stop: make(chan struct{}), start: readRuntime()}
	if err := pprof.StartCPUProfile(&lp.prof); err != nil {
		return nil, err
	}
	lp.wg.Add(1)
	go func() {
		defer lp.wg.Done()
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(heap)
			if v := heap[0].Value.Uint64(); v > lp.heapPeak {
				lp.heapPeak = v
			}
			select {
			case <-lp.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return lp, nil
}

// finish stops the probe and writes its metrics into m.
func (lp *layerProbe) finish(m map[string]float64) error {
	pprof.StopCPUProfile()
	close(lp.stop)
	lp.wg.Wait()
	end := readRuntime()
	d := func(i int) float64 { return sampleFloat(end[i]) - sampleFloat(lp.start[i]) }
	m["go.heap_peak_mb"] = float64(lp.heapPeak) / (1 << 20)
	m["go.alloc_mb"] = d(0) / (1 << 20)
	m["go.gc_cycles"] = d(1)
	if total := d(3); total > 0 {
		m["go.gc_cpu_frac"] = d(2) / total
	}
	cpu, err := foldCPUProfile(lp.prof.Bytes())
	if err != nil {
		return err
	}
	for _, mod := range cpuModules {
		m["cpu_s."+mod] = cpu[mod]
	}
	return nil
}
