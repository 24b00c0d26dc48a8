package core

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/collect"
	"repro/internal/colstore"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// colstoreConfig is the shared small fleet of the columnar tests.
func colstoreConfig(workers int) Config {
	return Config{
		Seed:            23,
		Machines:        6,
		Duration:        sim.Hour,
		WithNetwork:     true,
		SnapshotAtStart: true,
		Workers:         workers,
	}
}

func renderReport(t *testing.T, res *report.Results) string {
	t.Helper()
	return res.Table1() + res.Table2() + res.Table3() + res.Section8() + res.Section9()
}

// TestColstoreStudyByteIdentical is the end-to-end segment proof: each
// machine's saved segment must carry the SHA-256 of exactly the record
// stream the study collected (the bytes its DEFLATE stream inflates to),
// decode back to that digest, and not change with the fleet's worker
// count; and the loaded corpus must render the same report as the
// in-process one.
func TestColstoreStudyByteIdentical(t *testing.T) {
	var wantReport string
	var wantSums map[string][sha256.Size]byte
	for _, workers := range []int{1, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			st := NewStudy(colstoreConfig(workers))
			if err := st.Run(); err != nil {
				t.Fatal(err)
			}
			if err := st.Save(dir); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadCorpusTrace(dir, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(loaded.Segments) != len(st.Store.Machines()) {
				t.Fatalf("loaded %d segments for %d machines", len(loaded.Segments), len(st.Store.Machines()))
			}
			inProc, err := st.DataSet()
			if err != nil {
				t.Fatal(err)
			}
			rendered := renderReport(t, report.ComputeWorkers(inProc, runtime.GOMAXPROCS(0)))
			if got := renderReport(t, report.ComputeWorkers(loaded.DS, runtime.GOMAXPROCS(0))); got != rendered {
				t.Fatal("loaded corpus rendered a different report from the in-process one")
			}
			if wantReport == "" {
				wantReport = rendered
			} else if rendered != wantReport {
				t.Fatalf("report diverged at %d workers", workers)
			}

			sums := map[string][sha256.Size]byte{}
			for name, seg := range loaded.Segments {
				recs, err := st.Store.Records(name)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := seg.SHA256(), colstore.RowStreamSHA(recs); got != want {
					t.Errorf("%s: segment digest %x != record stream digest %x", name, got, want)
				}
				if err := seg.VerifySHA(); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				sums[name] = seg.SHA256()
			}
			if wantSums == nil {
				wantSums = sums
			} else {
				for name, sum := range sums {
					if wantSums[name] != sum {
						t.Errorf("%s: segment digest changed with worker count", name)
					}
				}
			}
		})
	}
}

// TestColstoreCheckpointResume pins the checkpointed-segment path: a
// study resumed from checkpoints saves segments identical to an
// uninterrupted run's, without re-encoding (the restored bytes are
// written verbatim).
func TestColstoreCheckpointResume(t *testing.T) {
	ckpt := t.TempDir()
	cfg := colstoreConfig(2)
	cfg.CheckpointDir = ckpt

	oneDir := t.TempDir()
	one := NewStudy(cfg)
	if err := one.Run(); err != nil {
		t.Fatal(err)
	}
	if err := one.Save(oneDir); err != nil {
		t.Fatal(err)
	}

	cfg.Resume = true
	twoDir := t.TempDir()
	two := NewStudy(cfg)
	restored := 0
	for _, n := range two.Nodes {
		if n.Restored {
			restored++
		}
	}
	if restored != cfg.Machines {
		t.Fatalf("resume restored %d of %d machines", restored, cfg.Machines)
	}
	for i, r := range two.restored {
		if r.Segment == nil {
			t.Fatalf("%s: checkpoint carries no segment", two.specs[i].name)
		}
	}
	if err := two.Run(); err != nil {
		t.Fatal(err)
	}
	if err := two.Save(twoDir); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(oneDir)
	if err != nil {
		t.Fatal(err)
	}
	segFiles := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), collect.ColumnarExt) {
			continue
		}
		segFiles++
		a, err := os.ReadFile(filepath.Join(oneDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(twoDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%s: resumed save differs from uninterrupted save", e.Name())
		}
	}
	if segFiles == 0 {
		t.Fatal("study saved no segments")
	}
}

// update rewrites the committed goldens under testdata/ instead of
// comparing against them: go test ./internal/core -run
// TestColumnarComputeByteIdentical -update.
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// renderEverything concatenates every report artefact, §5 and the cache
// sweep included — the full observable output of one computed corpus.
func renderEverything(r *report.Results, snaps []*snapshot.Snapshot) string {
	var b strings.Builder
	for _, f := range []func() string{
		r.Table1, r.Table2, r.Table3, r.Figure1, r.Figure2, r.Figure3,
		r.Figure4, r.Figure5, r.Figure6, r.Figure7, r.Figure8, r.Figure9,
		r.Figure10, r.Figure11, r.Figure12, r.Figure13, r.Figure14,
		r.Section6Lifetimes, r.Section7SelfSim, r.Section8, r.Section9,
		r.Section10, r.ProcessView, r.TypeView, r.FollowUps,
	} {
		b.WriteString(f())
	}
	b.WriteString(r.Section5(snaps))
	b.WriteString(r.CacheSweep([]float64{1, 4, 16}))
	return b.String()
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s (diff against the file; regenerate with -update only for an intended change)", path)
	}
}

// TestColumnarComputeByteIdentical is the golden gate of the analysis
// pipeline: one fixed-seed study, read through the in-process DataSet
// and through its saved and loaded segments, and recomputed at several
// compute worker counts, must render every table, figure and section
// byte-identically to the committed report, and the study's per-machine
// stored streams must match the committed SHA-256s. Each (layout,
// workers) pass builds fresh traces so no lazily derived state carries
// over between passes.
func TestColumnarComputeByteIdentical(t *testing.T) {
	st := NewStudy(Config{
		Seed: 29, Machines: 6, Duration: 30 * sim.Minute,
		WithNetwork: true, SnapshotAtStart: true, Workers: 8,
	})
	if err := st.Run(); err != nil {
		t.Fatal(err)
	}
	var sums strings.Builder
	for _, m := range st.Store.Machines() {
		sum, err := st.Store.StreamSum(m)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sums, "%s %x\n", m, sum)
	}
	checkGolden(t, "golden_streams.txt", sums.String())

	dir := t.TempDir()
	if err := st.Save(dir); err != nil {
		t.Fatal(err)
	}

	var want string
	for _, layout := range []struct {
		name string
		open func(workers int) (*analysis.DataSet, []*snapshot.Snapshot)
	}{
		{"in-process", func(workers int) (*analysis.DataSet, []*snapshot.Snapshot) {
			st.Cfg.Workers = workers
			ds, err := st.DataSet()
			if err != nil {
				t.Fatal(err)
			}
			return ds, st.Snapshots
		}},
		{"columnar", func(int) (*analysis.DataSet, []*snapshot.Snapshot) {
			c, err := LoadCorpusTrace(dir, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(c.Segments) != len(c.DS.Machines) {
				t.Fatalf("loaded %d segments for %d machines", len(c.Segments), len(c.DS.Machines))
			}
			return c.DS, c.Snaps
		}},
	} {
		for _, workers := range []int{1, 2, 8} {
			ds, snaps := layout.open(workers)
			got := renderEverything(report.ComputeWorkers(ds, workers), snaps)
			if want == "" {
				checkGolden(t, "golden_report.txt", got)
				want = got
			} else if got != want {
				t.Fatalf("%s layout at %d compute workers rendered a different report", layout.name, workers)
			}
		}
	}
}
