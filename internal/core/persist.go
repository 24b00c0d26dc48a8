package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/collect"
	"repro/internal/colstore"
	"repro/internal/ntos/machine"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/snapshot"
)

// manifest records per-machine dimensions next to the trace store.
type manifest struct {
	Machines []manifestEntry `json:"machines"`
}

type manifestEntry struct {
	Name      string            `json:"name"`
	Category  uint8             `json:"category"`
	ProcNames map[uint32]string `json:"proc_names,omitempty"`
}

// Save writes the collected corpus, snapshots and the machine manifest
// into dir. Each machine's trace is one colstore segment <stem>.fsc;
// restored machines reuse the segment carried by their checkpoint
// instead of re-encoding. Each snapshot is one <machine>-NNN.snap file
// in the binary snapshot codec (snapshot.Encode: magic, header, one
// flag-prefixed varint record per walk entry, SHA-256 trailer). The
// study must have Run.
func (s *Study) Save(dir string) error {
	if !s.ran {
		return fmt.Errorf("core: Save before Run")
	}
	prebuilt := map[string][]byte{}
	for i, r := range s.restored {
		if r != nil && r.Segment != nil {
			prebuilt[s.specs[i].name] = r.Segment
		}
	}
	if _, err := s.Store.SaveColumnarDir(dir, colstore.Options{Metrics: s.colMetrics}, prebuilt); err != nil {
		return err
	}
	var man manifest
	for i, sp := range s.specs {
		man.Machines = append(man.Machines, manifestEntry{
			Name:      sp.name,
			Category:  uint8(sp.cat),
			ProcNames: s.procNames(i),
		})
	}
	data, err := json.MarshalIndent(man, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644); err != nil {
		return err
	}
	for i, snap := range s.Snapshots {
		name := fmt.Sprintf("%s-%03d%s", safe(snap.Machine), i, snapExt)
		if err := os.WriteFile(filepath.Join(dir, name), snapshot.Encode(snap), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func safe(s string) string { return collect.SafeName(s) }

// snapExt names a saved snapshot; legacySnapExt the JSON form that
// earlier corpora used, which LoadCorpusTrace refuses rather than skips.
const (
	snapExt       = ".snap"
	legacySnapExt = ".snap.json"
)

// Corpus is a loaded study directory with every layer kept accessible:
// the analysis DataSet (what the report pipeline consumes), the raw
// columnar segments (what the pushdown scan engine serves) and the
// snapshots. The query service holds one of these for its whole
// lifetime.
type Corpus struct {
	DS    *analysis.DataSet
	Snaps []*snapshot.Snapshot
	// Segments holds each machine's segment keyed by true machine name.
	Segments map[string]*colstore.Segment
}

// LoadCorpusTrace reads a saved study directory back into an analysis
// corpus, its snapshots and the segments behind them, so callers that
// serve both decoded analyses and raw pushdown scans (the query service)
// load the directory exactly once. Each machine's segment (*.fsc) is
// scanned into its trace table, in sorted machine order. Snapshots come
// from the *.snap files. Files of older corpus layouts fail the load
// with an error naming the file, rather than loading a corpus without
// them: a *.trz row stream or a *.snap.json snapshot. Both options are
// nil-safe: a non-nil reg counts blocks scanned/skipped and bytes
// decoded per column family for every opened segment, and a non-nil tr
// records each machine's scan/argsort/gather stages as a span tree.
func LoadCorpusTrace(dir string, reg *obs.Registry, tr *trace.Tracer) (*Corpus, error) {
	segs, err := collect.LoadColumnarDir(dir, colstore.NewMetrics(reg))
	if err != nil {
		return nil, err
	}
	var man manifest
	if data, err := os.ReadFile(filepath.Join(dir, "manifest.json")); err == nil {
		if err := json.Unmarshal(data, &man); err != nil {
			return nil, fmt.Errorf("core: manifest: %w", err)
		}
	}
	cats := map[string]machine.Category{}
	procs := map[string]map[uint32]string{}
	// Segments from a corpus without a stem manifest surface under their
	// flattened file stems, so register those keys first and let the true
	// names (the stem-manifest round trip) overwrite them.
	for _, e := range man.Machines {
		cats[safe(e.Name)] = machine.Category(e.Category)
		procs[safe(e.Name)] = e.ProcNames
	}
	for _, e := range man.Machines {
		cats[e.Name] = machine.Category(e.Category)
		procs[e.Name] = e.ProcNames
	}
	names := make([]string, 0, len(segs))
	for n := range segs {
		names = append(names, n)
	}
	sort.Strings(names)
	ds := &analysis.DataSet{}
	for _, name := range names {
		sp := tr.StartTrace("load", name, trace.HashID("load", name), nil)
		mt, err := analysis.NewMachineTraceColumnar(name, cats[name], segs[name], sp)
		sp.Finish()
		if err != nil {
			return nil, err
		}
		mt.ProcNames = procs[name]
		ds.Machines = append(ds.Machines, mt)
	}
	var snaps []*snapshot.Snapshot
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), legacySnapExt) {
			return nil, fmt.Errorf("core: %s: JSON snapshot from an older corpus layout; re-collect the corpus", e.Name())
		}
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), snapExt) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		snap, err := snapshot.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", e.Name(), err)
		}
		snaps = append(snaps, snap)
	}
	return &Corpus{DS: ds, Snaps: snaps, Segments: segs}, nil
}
