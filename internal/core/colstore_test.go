package core

import (
	"compress/flate"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
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
func colstoreConfig(workers int, columnar bool) Config {
	return Config{
		Seed:            23,
		Machines:        6,
		Duration:        sim.Hour,
		WithNetwork:     true,
		SnapshotAtStart: true,
		Workers:         workers,
		Columnar:        columnar,
	}
}

func renderReport(t *testing.T, res *report.Results) string {
	t.Helper()
	return res.Table1() + res.Table2() + res.Table3() + res.Section8() + res.Section9()
}

// rowStreamDigest inflates one saved .trz file and digests its logical
// record bytes — the row-side half of the equivalence proof.
func rowStreamDigest(t *testing.T, path string) [sha256.Size]byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr := flate.NewReader(f)
	defer zr.Close()
	h := sha256.New()
	if _, err := io.Copy(h, zr); err != nil {
		t.Fatal(err)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// TestColstoreStudyByteIdentical is the end-to-end equivalence proof:
// the same seed studied through the row corpus and through the columnar
// corpus must render byte-identical reports, and each machine's columnar
// segment must carry the SHA-256 of exactly the bytes its row stream
// inflates to — at every worker count the fleet engine supports.
func TestColstoreStudyByteIdentical(t *testing.T) {
	var wantReport string
	var wantSums map[string][sha256.Size]byte
	for _, workers := range []int{1, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rowDir, colDir := t.TempDir(), t.TempDir()

			rowStudy := NewStudy(colstoreConfig(workers, false))
			if err := rowStudy.Run(); err != nil {
				t.Fatal(err)
			}
			if err := rowStudy.Save(rowDir); err != nil {
				t.Fatal(err)
			}

			colStudy := NewStudy(colstoreConfig(workers, true))
			if err := colStudy.Run(); err != nil {
				t.Fatal(err)
			}
			if err := colStudy.Save(colDir); err != nil {
				t.Fatal(err)
			}

			// The two directories hold different layouts of one corpus.
			row, err := LoadCorpusTrace(rowDir, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			col, err := LoadCorpusTrace(colDir, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			rowReport := renderReport(t, report.ComputeWorkers(row.DS, runtime.GOMAXPROCS(0)))
			colReport := renderReport(t, report.ComputeWorkers(col.DS, runtime.GOMAXPROCS(0)))
			if rowReport != colReport {
				t.Fatal("row and columnar corpora rendered different reports")
			}
			if wantReport == "" {
				wantReport = rowReport
			} else if rowReport != wantReport {
				t.Fatalf("report diverged at %d workers", workers)
			}

			// Per-machine digest equivalence: segment footer == inflated
			// row stream bytes.
			segs, err := collect.LoadColumnarDir(colDir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(segs) == 0 {
				t.Fatal("columnar save produced no segments")
			}
			sums := map[string][sha256.Size]byte{}
			for name, seg := range segs {
				rowPath := filepath.Join(rowDir, name+".trz")
				if got, want := seg.SHA256(), rowStreamDigest(t, rowPath); got != want {
					t.Errorf("%s: segment digest %x != row stream digest %x", name, got, want)
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

// TestColstoreLoadPrefersSegments pins the fallback order: a directory
// holding both layouts loads through the columnar path, and the loaded
// corpus equals the row-only load record for record.
func TestColstoreLoadPrefersSegments(t *testing.T) {
	dir := t.TempDir()
	s := NewStudy(colstoreConfig(2, false))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	row, err := LoadCorpusTrace(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rowDS := row.DS
	// Add segments beside the row streams; loads must now go columnar.
	if _, err := s.Store.SaveColumnarDir(dir, colstore.Options{}, nil); err != nil {
		t.Fatal(err)
	}
	both, err := LoadCorpusTrace(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	bothDS := both.DS
	if len(bothDS.Machines) != len(rowDS.Machines) {
		t.Fatalf("mixed-layout load found %d machines, row load %d", len(bothDS.Machines), len(rowDS.Machines))
	}
	for i, mt := range bothDS.Machines {
		rmt := rowDS.Machines[i]
		rows := mt.Rows()
		if mt.Name != rmt.Name || len(rows) != len(rmt.Rows()) {
			t.Fatalf("machine %d: %s/%d records vs %s/%d", i, mt.Name, len(rows), rmt.Name, len(rmt.Rows()))
		}
		for j := range rows {
			if rows[j] != rmt.Rows()[j] {
				t.Fatalf("%s: record %d differs between layouts", mt.Name, j)
			}
		}
		if mt.Index().KindCount(0) != rmt.Index().KindCount(0) {
			t.Fatalf("%s: pre-seeded index disagrees with rebuilt index", mt.Name)
		}
	}
}

// TestColstoreCheckpointResume pins the checkpointed-segment path: a
// columnar study resumed from checkpoints saves segments identical to an
// uninterrupted run's, without re-encoding (the restored bytes are
// written verbatim).
func TestColstoreCheckpointResume(t *testing.T) {
	ckpt := t.TempDir()
	cfg := colstoreConfig(2, true)
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
		t.Fatal("columnar study saved no segments")
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
// pipeline: one fixed-seed study, read through three layouts — the
// in-process DataSet, a row save→load and a columnar save→load — and
// recomputed at several compute worker counts, must render every table,
// figure and section byte-identically to the committed report, and the
// study's per-machine stored streams must match the committed SHA-256s.
// Each (layout, workers) pass builds fresh traces so no lazily derived
// state carries over between passes.
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

	rowDir, colDir := t.TempDir(), t.TempDir()
	if err := st.Save(rowDir); err != nil {
		t.Fatal(err)
	}
	st.Cfg.Columnar = true
	if err := st.Save(colDir); err != nil {
		t.Fatal(err)
	}

	load := func(dir string, columnar bool) func(int) (*analysis.DataSet, []*snapshot.Snapshot) {
		return func(int) (*analysis.DataSet, []*snapshot.Snapshot) {
			c, err := LoadCorpusTrace(dir, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if columnar && len(c.Segments) != len(c.DS.Machines) {
				t.Fatalf("columnar layout loaded %d segments for %d machines", len(c.Segments), len(c.DS.Machines))
			}
			if !columnar && len(c.Segments) != 0 {
				t.Fatalf("row layout loaded %d segments, want 0", len(c.Segments))
			}
			return c.DS, c.Snaps
		}
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
		{"row", load(rowDir, false)},
		{"columnar", load(colDir, true)},
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
