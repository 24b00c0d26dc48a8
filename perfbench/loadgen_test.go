package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestDriveAndBodyCheck(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasPrefix(r.URL.Path, "/fail"):
			http.Error(w, "no", http.StatusTooManyRequests)
		case r.URL.Path == "/vary" || r.URL.Query().Get("artifact") == knownDefect:
			fmt.Fprint(w, n.Add(1)) // a different body every time
		default:
			fmt.Fprint(w, r.URL.String())
		}
	}))
	defer srv.Close()

	var reqs []request
	var dues []time.Duration
	for i := 0; i < 60; i++ {
		path := fmt.Sprintf("/same/%d", i%5)
		switch i {
		case 10, 20:
			path = "/vary"
		case 30, 40:
			path = "/v1/report?artifact=" + knownDefect
		case 50:
			path = "/fail"
		}
		reqs = append(reqs, request{"hot", path})
		dues = append(dues, time.Duration(i)*time.Millisecond)
	}
	g := newLoadgen(nil)
	defer g.close()
	rs, abandoned := g.drive(srv.URL, reqs, dues)
	if abandoned || len(rs) != len(reqs) {
		t.Fatalf("abandoned=%v, %d outcomes for %d requests", abandoned, len(rs), len(reqs))
	}
	for i, r := range rs {
		if r.path != reqs[i].path || r.Due != dues[i] || r.Start < r.Due || r.End < r.Start {
			t.Fatalf("outcome %d out of order or mistimed: %+v", i, r)
		}
	}

	q := &queryRun{Run: newRun(), bodies: map[string]string{}, once: map[string]int{}}
	q.check(rs)
	// One 429 and one changed body fail; the known-defect artifact's
	// changed body does not.
	if q.Attempted != 60 || q.Failed != 2 || len(q.Problems) != 2 {
		t.Fatalf("attempted=%d failed=%d problems=%q", q.Attempted, q.Failed, q.Problems)
	}
	if !strings.Contains(q.Problems[0], "/vary") || !strings.Contains(q.Problems[1], "/fail") {
		t.Fatalf("problems = %q", q.Problems)
	}
}
