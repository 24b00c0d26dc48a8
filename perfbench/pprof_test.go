package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

var sink int

// spin burns CPU in this package for about d.
func spin(d time.Duration) {
	x := 0
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1_000_000; i++ {
			x = x*31 + i
		}
	}
	sink = x
}

func TestFoldCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(400 * time.Millisecond)
	pprof.StopCPUProfile()
	cpu, err := foldCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range cpu {
		total += v
	}
	if cpu["bench"] < 0.2 || cpu["bench"] < 0.8*total {
		t.Fatalf("spin in package main folded to %v", cpu)
	}
	if _, err := foldCPUProfile([]byte("not a profile")); err == nil {
		t.Fatal("garbage folded without error")
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/ntos/cachemgr.(*Manager).evictOne": "cachemgr",
		"repro/internal/ntos/fsys.(*FS).Lookup":            "fsdrv",
		"repro/internal/colstore.(*Writer).flushBlock":     "colstore",
		"repro/internal/core.(*Study).Save":                "fleet",
		"compress/flate.(*compressor).deflate":             "flate",
		"runtime.mallocgc":                                 "runtime",
		"net/http.(*conn).serve":                           "net",
	} {
		if got, ok := moduleOf(fn); !ok || got != want {
			t.Errorf("moduleOf(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	for _, fn := range []string{"container/list.(*Element).Prev", "sort.Slice", "crypto/sha256.block"} {
		if m, ok := moduleOf(fn); ok {
			t.Errorf("helper %q mapped to %q; it should be charged to its caller", fn, m)
		}
	}
}
