package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Pinned are the outputs of the pinned seed: per-machine stored-stream
// SHA-256s, per-section report SHA-256s, the simulated-behaviour counts,
// and the query fixture's corpus identity. They change only with a
// deliberate change to the program's output, regenerated with
// -write-pins and noted in CHANGES.md.
type Pinned struct {
	Study       []digests `json:"study"`       // one per pass of a rotation
	Fleet       []digests `json:"fleet_dirty"` // one per pass of a rotation
	QueryCorpus string    `json:"query_corpus_sha256"`
}

//go:embed pinned_seed1.json
var pinnedJSON []byte

// pins are the parsed pinned outputs; a malformed file fails every
// check against them rather than the process.
var pins, pinsErr = func() (Pinned, error) {
	var p Pinned
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		return p, fmt.Errorf("pinned_seed1.json: %w", err)
	}
	return p, nil
}()

// writePins runs the pinned seed's first rotation of study and
// fleet-dirty passes and writes their digests and counts to path, in
// pinned_seed1.json's form.
func writePins(path, work string) error {
	var p Pinned
	for i := 0; i < rotation; i++ {
		dir := filepath.Join(work, fmt.Sprintf("pins-%d", i))
		u, err := studyOnce(studySpec(subSeed(pinnedSeed, i)), dir, nil, false)
		if err != nil {
			return err
		}
		delete(u.sections, knownDefect)
		p.Study = append(p.Study, digests{u.streams, u.sections, u.counts})
		if i == 0 {
			qc, err := openQueryCorpus(dir, nil)
			if err != nil {
				return err
			}
			p.QueryCorpus = qc.sha()
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		f, err := fleetOnce(subSeed(pinnedSeed, i), nil)
		if err != nil {
			return err
		}
		p.Fleet = append(p.Fleet, digests{Streams: f.streams, Counts: f.counts})
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
