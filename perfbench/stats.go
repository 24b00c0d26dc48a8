package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile
// for it to count: a p99 over 200 samples rests on two requests and
// says nothing.
const minBeyond = 10

// Pct is a nearest-rank percentile with the sample count it rests on.
type Pct struct {
	Value  float64
	N      int // samples
	Beyond int // samples strictly above the percentile's rank
}

// OK reports whether at least minBeyond samples lie beyond the rank.
func (p Pct) OK() bool { return p.N > 0 && p.Beyond >= minBeyond }

func (p Pct) String() string {
	return fmt.Sprintf("%.4g (n=%d, %d beyond)", p.Value, p.N, p.Beyond)
}

// percentile returns the nearest-rank q-th percentile (0 < q ≤ 100) of
// xs, which it does not modify.
func percentile(xs []float64, q float64) Pct {
	n := len(xs)
	if n == 0 {
		return Pct{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return Pct{Value: s[rank-1], N: n, Beyond: n - rank}
}

// median of xs (mean of the middle two for even counts); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// Arrival is one open-loop request outcome on the rung's own timeline,
// every time an offset from the rung's start: Due is when the schedule
// said to send it, Start when a connection actually took it, End when
// the response (or error) came back.
type Arrival struct {
	Due, Start, End time.Duration
	OK              bool
}

// Rung summarises one open-loop rate: latency timed from when each
// request was due (so a stall is charged to every request queued behind
// it), how late the generator ran, and the backlog left when the
// schedule ended.
type Rung struct {
	Sent     int
	Failed   int
	P50, P99 Pct // milliseconds, due → end; failures count as +Inf
	LagMax   time.Duration
	// Backlog is how many requests were due by the end of the schedule
	// but not yet handed to a connection at that moment.
	Backlog int
	// Growing is set when the generator ran later and later: the mean
	// lateness of the schedule's last quarter exceeds that of its first
	// quarter by more than growthLimit. A burst of arrivals that the
	// service drains leaves lateness flat; overload makes it climb.
	Growing bool
}

const growthLimit = 50 * time.Millisecond

// Sustained reports whether the rung met the latency limit with no
// failures and no growing backlog.
func (r Rung) Sustained(limitMS float64) bool {
	return r.Sent > 0 && r.Failed == 0 && !r.Growing && r.P99.Value <= limitMS
}

// accountRung derives a Rung from the arrivals of a schedule, in
// schedule order, that ended at end. A failed request counts as missing
// any latency limit, so it enters the latency sample as +Inf.
func accountRung(arr []Arrival, end time.Duration) Rung {
	r := Rung{Sent: len(arr)}
	lat := make([]float64, 0, len(arr))
	for _, a := range arr {
		if lag := a.Start - a.Due; lag > r.LagMax {
			r.LagMax = lag
		}
		if a.Due <= end && a.Start > end {
			r.Backlog++
		}
		if !a.OK {
			r.Failed++
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, float64(a.End-a.Due)/float64(time.Millisecond))
	}
	r.P50 = percentile(lat, 50)
	r.P99 = percentile(lat, 99)
	if q := len(arr) / 4; q > 0 {
		r.Growing = meanLag(arr[len(arr)-q:])-meanLag(arr[:q]) > growthLimit
	}
	return r
}

func meanLag(arr []Arrival) time.Duration {
	var sum time.Duration
	for _, a := range arr {
		sum += a.Start - a.Due
	}
	return sum / time.Duration(len(arr))
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether name is a legal metric or workload name:
// it starts with a letter or digit and has at most 64 of [A-Za-z0-9_.-].
func validName(name string) bool { return metricName.MatchString(name) }
