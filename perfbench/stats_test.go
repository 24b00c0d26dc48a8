package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input: 1000..1
	}
	p := percentile(xs, 99)
	if p.Value != 990 || p.N != 1000 || p.Beyond != 10 || !p.OK() {
		t.Fatalf("p99 of 1..1000 = %+v, want 990 with 10 beyond", p)
	}
	if xs[0] != 1000 {
		t.Fatal("percentile reordered its input")
	}
	if p := percentile(xs[:999], 99); p.Beyond != 9 || p.OK() {
		t.Fatalf("p99 of 999 samples = %+v, want 9 beyond and not OK", p)
	}
	if p := percentile([]float64{7}, 50); p.Value != 7 || p.Beyond != 0 || p.OK() {
		t.Fatalf("single sample = %+v", p)
	}
	if p := percentile(nil, 50); p.N != 0 || p.OK() {
		t.Fatalf("empty = %+v", p)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestAccountRungKeepsUp(t *testing.T) {
	// 200 requests every 10 ms, each sent on time and served in 2 ms.
	var arr []Arrival
	for i := 0; i < 200; i++ {
		due := time.Duration(i) * 10 * time.Millisecond
		arr = append(arr, Arrival{Due: due, Start: due, End: due + 2*time.Millisecond, OK: true})
	}
	r := accountRung(arr, 2*time.Second)
	if r.Backlog != 0 || r.Growing || r.LagMax != 0 || r.Failed != 0 {
		t.Fatalf("steady rung = %+v", r)
	}
	if r.P50.Value != 2 || r.P99.Value != 2 || !r.Sustained(250) {
		t.Fatalf("steady latencies = %v / %v", r.P50, r.P99)
	}
}

func TestAccountRungChargesLatenessAndBacklog(t *testing.T) {
	// Requests due every 1 ms, but each takes 4 ms on one connection:
	// request i starts at 4i ms, so lateness grows by 3 ms per request
	// and latency is timed from the due time, not the send time.
	var arr []Arrival
	for i := 0; i < 1000; i++ {
		due := time.Duration(i) * time.Millisecond
		start := time.Duration(4*i) * time.Millisecond
		arr = append(arr, Arrival{Due: due, Start: start, End: start + 4*time.Millisecond, OK: true})
	}
	end := time.Second
	r := accountRung(arr, end)
	// Every request was due by 1 s, but 251..999 had not started then.
	if r.Backlog != 749 || !r.Growing {
		t.Fatalf("backlog = %d growing=%v, want 749 growing", r.Backlog, r.Growing)
	}
	// Lateness climbs 3 ms a request: the last quarter runs ~2.25 s later
	// than the first.
	if got := meanLag(arr[750:]) - meanLag(arr[:250]); got != 2250*time.Millisecond {
		t.Fatalf("lateness growth = %v, want 2.25s", got)
	}
	if want := 2997 * time.Millisecond; r.LagMax != want {
		t.Fatalf("lag max = %v, want %v", r.LagMax, want)
	}
	// Request i was due at i ms and finished at 4i+4 ms: 3i+4 ms from
	// due, so the 990th of 1000 (i = 989) is 2971 ms, where the time on
	// the wire is always 4 ms.
	if r.P99.Value != 2971 {
		t.Fatalf("p99 = %v ms, want 2971 (timed from due)", r.P99)
	}
	if r.Sustained(250) {
		t.Fatal("overloaded rung reported as sustained")
	}
}

func TestAccountRungFailuresMissTheLimit(t *testing.T) {
	var arr []Arrival
	for i := 0; i < 1000; i++ {
		due := time.Duration(i) * time.Millisecond
		arr = append(arr, Arrival{Due: due, Start: due, End: due + time.Millisecond, OK: i%50 != 0})
	}
	r := accountRung(arr, time.Second)
	if r.Failed != 20 {
		t.Fatalf("failed = %d, want 20", r.Failed)
	}
	if !math.IsInf(r.P99.Value, 1) || r.Sustained(250) {
		t.Fatalf("20 failures in 1000 must push p99 past any limit: %v", r.P99)
	}
}

func TestAccountRungBurstIsNotGrowth(t *testing.T) {
	// A burst of 20 simultaneous arrivals in the middle of a steady
	// schedule queues for a moment and drains: lateness is flat at both
	// ends, so the backlog is not growing, even if the schedule ends
	// while a few requests still wait.
	var arr []Arrival
	next := time.Duration(0) // when the single connection is free
	for i := 0; i < 400; i++ {
		due := time.Duration(i) * 5 * time.Millisecond
		if i >= 200 && i < 220 {
			due = 1000 * time.Millisecond
		}
		start := max(due, next)
		next = start + time.Millisecond
		arr = append(arr, Arrival{Due: due, Start: start, End: next, OK: true})
	}
	end := arr[len(arr)-1].Due
	arr[len(arr)-1].Start = end + 3*time.Millisecond // still waiting at the end
	r := accountRung(arr, end)
	if r.Growing || r.Backlog != 1 || r.LagMax < 19*time.Millisecond {
		t.Fatalf("burst rung = %+v, want lag ≥ 19ms, backlog 1, not growing", r)
	}
	if !r.Sustained(250) {
		t.Fatal("drained burst reported as not sustained")
	}
}

func TestValidName(t *testing.T) {
	good := []string{"run_s", "setup_s", "cpu_s.cachemgr", "report.kernel.instances_s",
		"fleet-dirty", "0x", strings.Repeat("a", 64)}
	for _, n := range good {
		if !validName(n) {
			t.Errorf("validName(%q) = false", n)
		}
	}
	bad := []string{"", "_run", ".x", "-x", "p99 ms", "lat/ms", "naïve",
		strings.Repeat("a", 65)}
	for _, n := range bad {
		if validName(n) {
			t.Errorf("validName(%q) = true", n)
		}
	}
	for _, m := range append(endToEndNames(), perLayerNames()...) {
		if !validName(m) {
			t.Errorf("declared metric %q is not a valid name", m)
		}
	}
}
