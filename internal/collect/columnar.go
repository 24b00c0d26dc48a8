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

// SaveColumnarDir writes each finalized machine stream as a columnar
// segment <dir>/<stem>.fsc, with the stem → machine assignment recorded
// in StemManifestName. prebuilt (may be nil) supplies already-encoded
// segments keyed by machine name — the fleet engine's checkpointed
// segments — which are written verbatim instead of re-encoding the
// stream. It returns the per-machine summaries; each summary's SHA-256
// equals colstore.RowStreamSHA of the machine's records, so callers can
// check a segment against its stream without re-reading files.
func (s *Store) SaveColumnarDir(dir string, opts colstore.Options, prebuilt map[string][]byte) (map[string]colstore.Summary, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sums := make(map[string]colstore.Summary)
	stems := s.fileStems()
	for _, mf := range stems {
		var data []byte
		var sum colstore.Summary
		if pre := prebuilt[mf.machine]; pre != nil {
			seg, err := colstore.OpenSegment(pre, nil)
			if err != nil {
				return nil, fmt.Errorf("collect: prebuilt segment %q: %w", mf.machine, err)
			}
			data = pre
			sum = colstore.Summary{Records: seg.Records(), Blocks: seg.Blocks(), Bytes: seg.Bytes(), SHA: seg.SHA256()}
		} else {
			recs, err := s.Records(mf.machine)
			if err != nil {
				return nil, err
			}
			if data, sum, err = colstore.EncodeSegment(recs, opts); err != nil {
				return nil, fmt.Errorf("collect: encode %q columnar: %w", mf.machine, err)
			}
		}
		path := filepath.Join(dir, mf.stem+ColumnarExt)
		if err := os.WriteFile(path, data, 0o644); err != nil {
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
// the file stems. A *.trz row stream in dir fails the load. Metrics m
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
		segs[name] = seg
	}
	return segs, nil
}
