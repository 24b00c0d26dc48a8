package collect

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/colstore"
)

// ColumnarExt is the file suffix of a columnar segment on disk: a saved
// corpus holds one <stem>.fsc per machine.
const ColumnarExt = ".fsc"

// rowExt is the suffix of the DEFLATE row streams that older corpora
// held instead of segments. LoadColumnarDir refuses a directory holding
// one rather than loading it as an empty or partial corpus.
const rowExt = ".trz"

// SaveColumnarDir writes each finalized machine's segment (Segment) as
// <dir>/<stem>.fsc, with the stem → machine assignment recorded in
// StemManifestName. It returns the per-machine summaries; each summary's
// SHA-256 equals colstore.RowStreamSHA of the machine's records, so
// callers can check a segment against its stream without re-reading
// files.
func (s *Store) SaveColumnarDir(dir string) (map[string]colstore.Summary, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sums := make(map[string]colstore.Summary)
	stems := s.fileStems()
	for _, mf := range stems {
		data, sum, err := s.segment(mf.machine)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(dir, mf.stem+ColumnarExt), data, 0o644); err != nil {
			return nil, err
		}
		sums[mf.machine] = sum
	}
	if err := writeStemManifest(dir, stems); err != nil {
		return nil, err
	}
	return sums, nil
}

// LoadColumnarDir opens every *.fsc segment in dir, keyed by true
// machine name: the stem manifest written at save time resolves
// SafeName-rewritten and collision-suffixed stems back to the names the
// streams were collected under, and a corpus without a manifest keeps
// the file stems. A *.trz row stream in dir fails the load, and so does
// a manifest that names one machine for two segments. Metrics m
// may be nil; when set, every opened segment reports scans against it.
func LoadColumnarDir(dir string, m *colstore.Metrics) (map[string]*colstore.Segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), rowExt) {
			return nil, fmt.Errorf("collect: %s: row stream from an older corpus layout; re-collect the corpus", e.Name())
		}
	}
	stems, err := readStemManifest(dir)
	if err != nil {
		return nil, err
	}
	segs := make(map[string]*colstore.Segment)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ColumnarExt) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		seg, err := colstore.OpenSegment(data, m)
		if err != nil {
			return nil, fmt.Errorf("collect: %s: %w", e.Name(), err)
		}
		name, err := machineForStem(stems, strings.TrimSuffix(e.Name(), ColumnarExt), e.Name())
		if err != nil {
			return nil, err
		}
		if _, dup := segs[name]; dup {
			return nil, fmt.Errorf("%w: %s names machine %q for more than one segment", ErrManifestMismatch, StemManifestName, name)
		}
		segs[name] = seg
	}
	return segs, nil
}
