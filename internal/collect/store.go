// Package collect implements the trace collection servers of §3: they
// receive event streams from the per-machine trace agents and store them
// in a compressed format for later retrieval by the analysis. A Store is
// the compressed repository (DEFLATE per machine stream, as the paper's
// servers "store them in compressed formats", plus each finalized
// machine's colstore segment, encoded once on first request);
// Server/Client add the network path the agents used.
package collect

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/colstore"
	"repro/internal/tracefmt"
)

// ErrNoRecords reports that a machine has no stored trace stream. It is
// the expected outcome for a machine that legitimately produced no
// records during a study; callers should test with errors.Is and treat
// every other error from Records as a real decode/state failure.
var ErrNoRecords = errors.New("collect: no records")

// ErrCountMismatch reports that a stored stream's decoded record count
// disagrees with the count recorded when the stream was written — a
// truncated or padded stream, i.e. corruption, never a benign state.
// Callers test with errors.Is; the wrapped message says which direction
// the mismatch ran.
var ErrCountMismatch = errors.New("collect: record count mismatch")

// Store is a compressed, per-machine trace repository. It is safe for
// concurrent use: the fleet engine runs machines on parallel shards, so
// the map is guarded by one mutex and each stream by its own, keeping
// compression of different machines' streams off a shared lock.
type Store struct {
	mu      sync.Mutex
	streams map[string]*stream
	colM    *colstore.Metrics
}

type stream struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	zw     *flate.Writer
	count  int
	closed bool
	// seg is the machine's colstore segment once Segment (or
	// InstallSegment) has produced it; segSum describes it.
	seg    []byte
	segSum colstore.Summary
}

// NewStore creates an empty repository. Metrics m (may be nil) count the
// colstore segments the Store encodes.
func NewStore(m *colstore.Metrics) *Store {
	return &Store{streams: map[string]*stream{}, colM: m}
}

// newStream starts an empty DEFLATE stream.
func newStream() (*stream, error) {
	st := &stream{}
	zw, err := flate.NewWriter(&st.buf, flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	st.zw = zw
	return st, nil
}

// get returns the named stream, creating it when create is set.
func (s *Store) get(machine string, create bool) (*stream, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.streams[machine]
	if st == nil && create {
		var err error
		if st, err = newStream(); err != nil {
			return nil, err
		}
		s.streams[machine] = st
	}
	return st, nil
}

// Append compresses and stores records under the machine's stream.
func (s *Store) Append(machine string, recs []tracefmt.Record) error {
	if len(recs) == 0 {
		return nil
	}
	st, err := s.get(machine, true)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return fmt.Errorf("collect: stream %q already finalized", machine)
	}
	if err := tracefmt.WriteAll(st.zw, recs); err != nil {
		return err
	}
	st.count += len(recs)
	return nil
}

// close flushes and seals one stream.
func (st *stream) close(name string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	if err := st.zw.Close(); err != nil {
		return fmt.Errorf("collect: finalize %q: %w", name, err)
	}
	st.closed = true
	return nil
}

// Finalize flushes all compression streams; Append after Finalize fails.
func (s *Store) Finalize() error {
	s.mu.Lock()
	streams := make(map[string]*stream, len(s.streams))
	for name, st := range s.streams {
		streams[name] = st
	}
	s.mu.Unlock()
	for name, st := range streams {
		if err := st.close(name); err != nil {
			return err
		}
	}
	return nil
}

// FinalizeMachine seals one machine's stream so it can be read, hashed or
// encoded while other shards are still appending to theirs. Finalizing a
// machine with no stream is a no-op.
func (s *Store) FinalizeMachine(machine string) error {
	st, _ := s.get(machine, false)
	if st == nil {
		return nil
	}
	return st.close(machine)
}

// Machines lists the machine names with stored streams, sorted.
func (s *Store) Machines() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.streams))
	for n := range s.streams {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RecordCount returns the number of stored records for a machine.
func (s *Store) RecordCount(machine string) int {
	st, _ := s.get(machine, false)
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.count
}

// TotalRecords sums record counts across machines.
func (s *Store) TotalRecords() int {
	s.mu.Lock()
	streams := make([]*stream, 0, len(s.streams))
	for _, st := range s.streams {
		streams = append(streams, st)
	}
	s.mu.Unlock()
	total := 0
	for _, st := range streams {
		st.mu.Lock()
		total += st.count
		st.mu.Unlock()
	}
	return total
}

// CompressedBytes reports the stored (compressed) size.
func (s *Store) CompressedBytes() int64 {
	s.mu.Lock()
	streams := make([]*stream, 0, len(s.streams))
	for _, st := range s.streams {
		streams = append(streams, st)
	}
	s.mu.Unlock()
	var total int64
	for _, st := range streams {
		st.mu.Lock()
		total += int64(st.buf.Len())
		st.mu.Unlock()
	}
	return total
}

// Records decompresses and decodes one machine's stream. The stream must
// be finalized first. A machine with no stream yields ErrNoRecords;
// any other error is a state or decode failure.
func (s *Store) Records(machine string) ([]tracefmt.Record, error) {
	var recs []tracefmt.Record
	err := s.finalized(machine, func(st *stream) error {
		recs = make([]tracefmt.Record, st.count)
		return decodeStream(st.buf.Bytes(), st.count, recs, func([]tracefmt.Record) {})
	})
	if err != nil {
		return nil, err
	}
	return recs, nil
}

// ReadChunks decodes one machine's stream like Records, but hands the
// records to fn a chunk at a time, in stream order, instead of as one
// slice — so a consumer that folds them into another form never holds
// the whole decoded stream. fn must not keep the chunk: its backing
// array is reused.
func (s *Store) ReadChunks(machine string, fn func([]tracefmt.Record)) error {
	return s.finalized(machine, func(st *stream) error { return st.readChunks(fn) })
}

// chunkRecords is ReadChunks' chunk length (~640 KB of records).
const chunkRecords = 4096

func (st *stream) readChunks(fn func([]tracefmt.Record)) error {
	return decodeStream(st.buf.Bytes(), st.count, make([]tracefmt.Record, min(st.count, chunkRecords)), fn)
}

// finalized runs fn over one machine's finalized stream under the stream
// lock. A machine with no stream yields ErrNoRecords.
func (s *Store) finalized(machine string, fn func(st *stream) error) error {
	st, _ := s.get(machine, false)
	if st == nil {
		return fmt.Errorf("%w for machine %q", ErrNoRecords, machine)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.closed {
		return fmt.Errorf("collect: stream %q not finalized", machine)
	}
	return fn(st)
}

// flatePool and readerPool recycle the DEFLATE state (~40 KB of window
// and tables) and the chunked stream decoder (~200 KB bufio buffer)
// across decodes: the parallel DataSet fan-out calls Records once per
// machine, and without pooling those two allocations dominate.
var (
	flatePool = sync.Pool{
		New: func() any { return flate.NewReader(bytes.NewReader(nil)) },
	}
	readerPool = sync.Pool{
		New: func() any { return tracefmt.NewReader(bytes.NewReader(nil)) },
	}
)

// decodeStream inflates and decodes a finalized stream into buf, handing
// each filled chunk (all of buf but possibly the last) to fn; a buf of
// the stored record count decodes the stream in one exactly-sized
// allocation. The stored count is trusted but verified: a stream that
// ends early or holds extra records is a corruption error, not a silent
// truncation.
func decodeStream(data []byte, count int, buf []tracefmt.Record, fn func([]tracefmt.Record)) error {
	zr := flatePool.Get().(io.ReadCloser)
	defer flatePool.Put(zr)
	if err := zr.(flate.Resetter).Reset(bytes.NewReader(data), nil); err != nil {
		return err
	}
	rd := readerPool.Get().(*tracefmt.Reader)
	defer readerPool.Put(rd)
	rd.Reset(zr)

	for done := 0; done < count; {
		n := min(len(buf), count-done)
		for i := 0; i < n; i++ {
			if err := rd.ReadInto(&buf[i]); err != nil {
				if err == io.EOF {
					return fmt.Errorf("%w: stream ended after %d of %d records", ErrCountMismatch, done+i, count)
				}
				return err
			}
		}
		fn(buf[:n])
		done += n
	}
	var extra tracefmt.Record
	switch err := rd.ReadInto(&extra); err {
	case io.EOF:
	case nil:
		return fmt.Errorf("%w: stream holds more than the recorded %d records", ErrCountMismatch, count)
	default:
		return err
	}
	return zr.Close()
}

// StreamSum returns the SHA-256 of one machine's finalized compressed
// stream. Equal sums mean byte-identical stored streams — the invariant
// the fleet engine maintains across worker counts and resume.
func (s *Store) StreamSum(machine string) ([sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	err := s.finalized(machine, func(st *stream) error {
		sum = sha256.Sum256(st.buf.Bytes())
		return nil
	})
	return sum, err
}

// Segment returns one machine's finalized trace as a colstore segment.
// The first call encodes it, streaming the DEFLATE stream's records into
// a colstore.Writer a chunk at a time; the Store keeps the bytes, so a
// checkpoint and a later save share one encode. The caller must not
// modify the returned slice. A machine with no stream yields
// ErrNoRecords.
func (s *Store) Segment(machine string) ([]byte, error) {
	seg, _, err := s.segment(machine)
	return seg, err
}

func (s *Store) segment(machine string) ([]byte, colstore.Summary, error) {
	var (
		seg []byte
		sum colstore.Summary
	)
	err := s.finalized(machine, func(st *stream) error {
		if st.seg == nil {
			var buf bytes.Buffer
			buf.Grow(st.count*24 + 1024)
			w := colstore.NewWriter(&buf, colstore.Options{Metrics: s.colM})
			// Writer errors are sticky and surface from Close.
			if err := st.readChunks(func(recs []tracefmt.Record) { w.Append(recs) }); err != nil {
				return err
			}
			segSum, err := w.Close()
			if err != nil {
				return fmt.Errorf("collect: encode %q segment: %w", machine, err)
			}
			// Clone drops the Grow headroom the Store would otherwise keep.
			st.seg, st.segSum = bytes.Clone(buf.Bytes()), segSum
		}
		seg, sum = st.seg, st.segSum
		return nil
	})
	return seg, sum, err
}

// InstallSegment installs a machine's trace from its colstore segment —
// the resume path of the fleet engine — and returns its record count.
// The Store keeps the segment and rebuilds the DEFLATE stream by
// appending the segment's records. The compressor emits only full
// windows until it is closed, so its output depends on the record bytes
// alone, not on how they were split across Append calls: the rebuilt
// stream is byte-identical to the one the records were first collected
// into. A segment with no records installs nothing (a fresh run that
// produced none has no stream either); installing over an existing
// stream fails.
func (s *Store) InstallSegment(machine string, data []byte) (int, error) {
	seg, err := colstore.OpenSegment(data, nil)
	if err != nil {
		return 0, err
	}
	if seg.Records() == 0 {
		return 0, nil
	}
	st, err := newStream()
	if err != nil {
		return 0, err
	}
	it := seg.Batches(colstore.Predicate{}, colstore.ScanAllNumeric|colstore.ScanName)
	defer it.Close()
	var (
		b    colstore.Batch
		recs []tracefmt.Record
	)
	for {
		b.Reset()
		ok, err := it.Next(&b)
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		recs = recs[:0]
		for i := 0; i < b.N; i++ {
			recs = append(recs, b.Record(i))
		}
		if err := tracefmt.WriteAll(st.zw, recs); err != nil {
			return 0, err
		}
		st.count += len(recs)
	}
	if st.count != seg.Records() {
		return 0, fmt.Errorf("%w: segment %q decoded %d of %d records", ErrCountMismatch, machine, st.count, seg.Records())
	}
	if err := st.zw.Close(); err != nil {
		return 0, err
	}
	st.closed = true
	st.seg = data
	st.segSum = colstore.Summary{Records: seg.Records(), Blocks: seg.Blocks(), Bytes: seg.Bytes(), SHA: seg.SHA256()}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.streams[machine]; ok {
		return 0, fmt.Errorf("collect: install: stream %q already exists", machine)
	}
	s.streams[machine] = st
	return st.count, nil
}

// SafeName flattens a machine name into a file name.
func SafeName(machine string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, machine)
}

// machineFile pairs a machine name with its on-disk file stem.
type machineFile struct {
	machine string
	stem    string
}

// fileStems assigns each machine a unique file stem: SafeName-flattened,
// with machines whose names flatten to the same stem disambiguated by a
// deterministic numeric suffix (-2, -3, ...) in sorted-name order, so two
// machines can never silently overwrite each other's file.
func (s *Store) fileStems() []machineFile {
	names := s.Machines()
	out := make([]machineFile, 0, len(names))
	used := map[string]bool{}
	for _, name := range names {
		base := SafeName(name)
		stem := base
		for n := 2; used[stem]; n++ {
			stem = fmt.Sprintf("%s-%d", base, n)
		}
		used[stem] = true
		out = append(out, machineFile{machine: name, stem: stem})
	}
	return out
}

// StemManifestName is the corpus-directory file recording the stem →
// machine-name assignment. SafeName flattening is lossy ("pool/01" and
// "pool:01" both land on "pool_01", with a numeric suffix breaking the
// tie), so without this manifest a Save→Load round trip silently renames
// any machine whose name was rewritten or collided.
const StemManifestName = "machines.json"

// ErrManifestMismatch reports a corpus directory whose stem manifest
// disagrees with the files on disk — a segment file whose stem the
// manifest does not mention, or two segments it maps to one machine
// name. That means the directory holds a mix of corpora (or a manifest
// from a different save) and the true machine names cannot be trusted;
// callers test with errors.Is.
var ErrManifestMismatch = errors.New("collect: stem manifest mismatch")

// stemManifest is the on-disk schema of StemManifestName.
type stemManifest struct {
	Version int `json:"version"`
	// Stems maps file stem → true machine name.
	Stems map[string]string `json:"stems"`
}

// writeStemManifest persists the stem assignment beside the segments.
func writeStemManifest(dir string, stems []machineFile) error {
	man := stemManifest{Version: 1, Stems: make(map[string]string, len(stems))}
	for _, mf := range stems {
		man.Stems[mf.stem] = mf.machine
	}
	data, err := json.MarshalIndent(&man, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, StemManifestName), append(data, '\n'), 0o644)
}

// readStemManifest loads the stem → machine map, or nil when the corpus
// predates the manifest (names then fall back to the raw stems).
func readStemManifest(dir string) (map[string]string, error) {
	data, err := os.ReadFile(filepath.Join(dir, StemManifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var man stemManifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("collect: %s: %w", StemManifestName, err)
	}
	return man.Stems, nil
}

// machineForStem resolves a file stem to its true machine name under the
// manifest (nil = legacy corpus, stem is the name).
func machineForStem(stems map[string]string, stem, file string) (string, error) {
	if stems == nil {
		return stem, nil
	}
	name, ok := stems[stem]
	if !ok {
		return "", fmt.Errorf("%w: %s has no entry for %q", ErrManifestMismatch, StemManifestName, file)
	}
	return name, nil
}
