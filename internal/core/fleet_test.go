package core

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/collect"
	"repro/internal/colstore"
	"repro/internal/obs"
	"repro/internal/sim"
)

// fleetCfg is the reduced study used by the fleet-level tests.
func fleetCfg(workers int) Config {
	return Config{
		Seed: 21, Machines: 4, Duration: 30 * sim.Minute,
		WithNetwork: true, Workers: workers,
	}
}

// streamSums runs a study and returns each machine's compressed-stream
// hash.
func streamSums(t *testing.T, cfg Config) map[string][sha256.Size]byte {
	t.Helper()
	s := NewStudy(cfg)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	sums := map[string][sha256.Size]byte{}
	for _, name := range s.Store.Machines() {
		sum, err := s.Store.StreamSum(name)
		if err != nil {
			t.Fatalf("StreamSum(%s): %v", name, err)
		}
		sums[name] = sum
	}
	return sums
}

// TestStudyWorkerCountInvariance is the engine's core invariant at study
// level: the same seed yields byte-identical per-machine trace stores at
// any worker count.
func TestStudyWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run study in -short mode")
	}
	base := streamSums(t, fleetCfg(1))
	if len(base) == 0 {
		t.Fatal("sequential run produced no streams")
	}
	for _, workers := range []int{4, 8} {
		got := streamSums(t, fleetCfg(workers))
		if len(got) != len(base) {
			t.Fatalf("workers=%d: %d streams, want %d", workers, len(got), len(base))
		}
		for name, want := range base {
			if got[name] != want {
				t.Errorf("workers=%d: machine %s stream differs from sequential run", workers, name)
			}
		}
	}
}

// TestStudyCheckpointResume kills-and-resumes a checkpointed study: a
// resumed run must restore intact machines from their checkpoints, re-run
// the missing ones, and converge to the same per-machine streams.
func TestStudyCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run study in -short mode")
	}
	dir := t.TempDir()
	cfg := fleetCfg(2)
	cfg.CheckpointDir = dir
	base := streamSums(t, cfg)

	// Simulate a run killed partway: two machines' checkpoints survive.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 4 {
		t.Fatalf("%d checkpoints, want 4", len(ents))
	}
	for _, e := range ents[2:] {
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}

	cfg.Resume = true
	s := NewStudy(cfg)
	restored := 0
	for _, n := range s.Nodes {
		if n.Restored {
			restored++
			if n.M != nil {
				t.Error("restored node has live apparatus")
			}
		}
	}
	if restored != 2 {
		t.Fatalf("restored %d machines, want 2", restored)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for name, want := range base {
		sum, err := s.Store.StreamSum(name)
		if err != nil {
			t.Fatalf("StreamSum(%s) after resume: %v", name, err)
		}
		if sum != want {
			t.Errorf("machine %s: resumed stream differs from uninterrupted run", name)
		}
	}
	// The resumed corpus is fully analyzable, including restored machines'
	// process dimensions from their checkpoints.
	ds, err := s.DataSet()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Machines) != 4 {
		t.Fatalf("resumed corpus has %d machines, want 4", len(ds.Machines))
	}
	for _, mt := range ds.Machines {
		if mt.Len() == 0 {
			t.Errorf("machine %s: empty records after resume", mt.Name)
		}
		if len(mt.ProcNames) == 0 {
			t.Errorf("machine %s: process dimension lost on resume", mt.Name)
		}
	}
}

// TestCheckpointedStudyEncodesOnce: a checkpointed run encodes each
// machine's segment once, for its checkpoint, and the save afterwards
// writes those same bytes instead of encoding again.
func TestCheckpointedStudyEncodesOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("study run in -short mode")
	}
	cfg := fleetCfg(2)
	cfg.CheckpointDir = t.TempDir()
	reg := obs.NewRegistry()
	cfg.Obs = reg
	s := NewStudy(cfg)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	if n := colstore.NewMetrics(reg).SegmentsWritten.Value(); n != 4 {
		t.Errorf("4-machine checkpointed study encoded %d segments, want 4", n)
	}
	for _, name := range s.Store.Machines() {
		seg, err := s.Store.Segment(name)
		if err != nil {
			t.Fatal(err)
		}
		saved, err := os.ReadFile(filepath.Join(dir, collect.SafeName(name)+collect.ColumnarExt))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved, seg) {
			t.Errorf("%s: saved segment differs from the store's", name)
		}
		ck, err := os.ReadFile(filepath.Join(cfg.CheckpointDir, collect.SafeName(name)+".ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasSuffix(ck, seg) {
			t.Errorf("%s: checkpoint does not end in the store's segment", name)
		}
	}
}

// TestUserNamesDistinct pins the user-derivation fix: every machine of a
// fleet with a top-up name gets a distinct profile owner. (The old
// trailing-digit slice mapped "personal-x01", "personal-01" and every
// other category's "-01" machine to the same "user01".)
func TestUserNamesDistinct(t *testing.T) {
	specs := fleetSpecs(11) // rounding falls short → top-up "personal-x10"
	seen := map[string]string{}
	for _, sp := range specs {
		u := userName(sp.name)
		if prev, dup := seen[u]; dup {
			t.Errorf("user %q derived from both %q and %q", u, prev, sp.name)
		}
		seen[u] = sp.name
	}
	if topUp := userName("personal-x10"); topUp == userName("personal-10") {
		t.Errorf("top-up machine collides: %q", topUp)
	}
	// The derivation must stay within the era's short login names: long
	// users push profile paths past tracefmt.NameLen and alias files.
	for u := range seen {
		if len(u) > 8 {
			t.Errorf("user %q too long (%d chars)", u, len(u))
		}
	}
}
