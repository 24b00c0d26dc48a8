package collect

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/ntos/types"
	"repro/internal/sim"
	"repro/internal/tracefmt"
)

func mkRecs(n int, fid uint64) []tracefmt.Record {
	recs := make([]tracefmt.Record, n)
	for i := range recs {
		recs[i] = tracefmt.Record{
			Kind:   tracefmt.EvRead,
			FileID: types.FileObjectID(fid),
			Proc:   uint32(i),
			Start:  sim.Time(i * 10),
			End:    sim.Time(i*10 + 5),
		}
	}
	return recs
}

func TestStoreRoundTrip(t *testing.T) {
	s := NewStore()
	if err := s.Append("m1", mkRecs(500, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("m1", mkRecs(300, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("m2", mkRecs(100, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := s.Machines(); len(got) != 2 || got[0] != "m1" || got[1] != "m2" {
		t.Fatalf("Machines = %v", got)
	}
	if s.RecordCount("m1") != 800 || s.TotalRecords() != 900 {
		t.Errorf("counts: m1=%d total=%d", s.RecordCount("m1"), s.TotalRecords())
	}
	recs, err := s.Records("m1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 800 {
		t.Fatalf("decoded %d records", len(recs))
	}
	if recs[0].FileID != 1 || recs[500].FileID != 2 {
		t.Error("record order lost")
	}
	if s.CompressedBytes() <= 0 {
		t.Error("no compressed bytes reported")
	}
	// Compression must actually compress these repetitive records.
	raw := int64(900 * tracefmt.RecordSize)
	if s.CompressedBytes() >= raw {
		t.Errorf("compressed %d >= raw %d", s.CompressedBytes(), raw)
	}
}

func TestStoreAppendAfterFinalize(t *testing.T) {
	s := NewStore()
	s.Append("m", mkRecs(10, 1))
	s.Finalize()
	if err := s.Append("m", mkRecs(10, 2)); err == nil {
		t.Error("append after finalize succeeded")
	}
}

func TestStoreRecordsBeforeFinalize(t *testing.T) {
	s := NewStore()
	s.Append("m", mkRecs(10, 1))
	if _, err := s.Records("m"); err == nil {
		t.Error("Records before finalize succeeded")
	}
	if _, err := s.Records("nosuch"); err == nil {
		t.Error("Records for unknown machine succeeded")
	}
}

// TestStoreSaveLoadDir: a saved corpus loads back with every machine's
// records intact.
func TestStoreSaveLoadDir(t *testing.T) {
	dir := t.TempDir()
	s := NewStore()
	s.Append("alpha", mkRecs(250, 7))
	s.Append("beta-2", mkRecs(50, 8))
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SaveColumnarDir(dir, colstore.Options{}, nil); err != nil {
		t.Fatal(err)
	}
	segs, err := LoadColumnarDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || segs["alpha"] == nil || segs["beta-2"] == nil {
		t.Fatalf("loaded segments %v, want alpha and beta-2", segs)
	}
	recs, err := segs["alpha"].ReadAll()
	if err != nil || len(recs) != 250 {
		t.Fatalf("alpha: %d records, err=%v", len(recs), err)
	}
	if recs[0] != mkRecs(1, 7)[0] {
		t.Error("loaded record corrupt")
	}
}

// loadedNames lists the machine names of a loaded corpus, sorted.
func loadedNames(segs map[string]*colstore.Segment) []string {
	names := make([]string, 0, len(segs))
	for name := range segs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func TestSaveDirNameCollisions(t *testing.T) {
	// "pool/01", "pool:01" and "pool_01" all flatten to "pool_01";
	// SaveColumnarDir must keep all three segments instead of silently
	// overwriting.
	s := NewStore()
	s.Append("pool/01", mkRecs(10, 1))
	s.Append("pool:01", mkRecs(20, 2))
	s.Append("pool_01", mkRecs(30, 3))
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	// saveStems saves into a fresh directory and returns its segment
	// file names.
	saveStems := func() []string {
		dir := t.TempDir()
		if _, err := s.SaveColumnarDir(dir, colstore.Options{}, nil); err != nil {
			t.Fatal(err)
		}
		segs, err := LoadColumnarDir(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := loadedNames(segs); len(got) != 3 {
			t.Fatalf("loaded %d segments (%v), want 3", len(got), got)
		}
		total := 0
		for _, seg := range segs {
			total += seg.Records()
		}
		if total != 60 {
			t.Fatalf("loaded %d records, want 60", total)
		}
		files, err := filepath.Glob(filepath.Join(dir, "*"+ColumnarExt))
		if err != nil {
			t.Fatal(err)
		}
		for i := range files {
			files[i] = filepath.Base(files[i])
		}
		return files
	}
	// The stem assignment is deterministic: saving twice yields the same
	// file names, one of them collision-suffixed.
	a, b := saveStems(), saveStems()
	if !slices.Equal(a, b) {
		t.Fatalf("non-deterministic stems: %v vs %v", a, b)
	}
	if want := []string{"pool_01-2.fsc", "pool_01-3.fsc", "pool_01.fsc"}; !slices.Equal(a, want) {
		t.Fatalf("segment files %v, want %v", a, want)
	}
}

func TestNetworkTransport(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore()
	srv := Serve(ln, store, nil)

	c1, err := Dial(srv.Addr(), "node-01")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Dial(srv.Addr(), "node-02")
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Send(mkRecs(3000, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c2.Send(mkRecs(100, 2)); err != nil {
		t.Fatal(err)
	}
	if err := c1.Send(mkRecs(500, 3)); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	c2.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for _, e := range srv.Errors() {
		t.Errorf("server error: %v", e)
	}
	if err := store.Finalize(); err != nil {
		t.Fatal(err)
	}
	if store.RecordCount("node-01") != 3500 || store.RecordCount("node-02") != 100 {
		t.Errorf("counts: %d / %d", store.RecordCount("node-01"), store.RecordCount("node-02"))
	}
	recs, err := store.Records("node-01")
	if err != nil || len(recs) != 3500 {
		t.Fatalf("node-01 decode: %d, %v", len(recs), err)
	}
}

func TestServerRejectsBadMagic(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore()
	srv := Serve(ln, store, nil)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("BADMAGIC........"))
	conn.Close()
	srv.Close()
	if len(srv.Errors()) == 0 {
		t.Error("bad magic not reported")
	}
	if store.TotalRecords() != 0 {
		t.Error("records stored from bad stream")
	}
}

func TestRecordsNoRecordsSentinel(t *testing.T) {
	s := NewStore()
	s.Append("m", mkRecs(10, 1))
	s.Finalize()
	_, err := s.Records("ghost")
	if !errors.Is(err, ErrNoRecords) {
		t.Errorf("Records(ghost) = %v, want ErrNoRecords", err)
	}
	// A state error (unfinalized stream) must NOT read as "no records":
	// callers distinguish an empty machine from a broken store.
	s2 := NewStore()
	s2.Append("m", mkRecs(10, 1))
	if _, err := s2.Records("m"); err == nil || errors.Is(err, ErrNoRecords) {
		t.Errorf("Records before finalize = %v, want a non-sentinel error", err)
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	s := NewStore()
	s.Append("m", mkRecs(400, 5))
	s.Finalize()
	data, count, err := s.ExportStream("m")
	if err != nil || count != 400 {
		t.Fatalf("ExportStream: count=%d err=%v", count, err)
	}
	want, err := s.StreamSum("m")
	if err != nil {
		t.Fatal(err)
	}

	dst := NewStore()
	if err := dst.ImportStream("m", data, count); err != nil {
		t.Fatal(err)
	}
	if got, _ := dst.StreamSum("m"); got != want {
		t.Error("imported stream hash differs")
	}
	recs, err := dst.Records("m")
	if err != nil || len(recs) != 400 {
		t.Fatalf("imported records: %d, err=%v", len(recs), err)
	}
	if recs[0].FileID != 5 {
		t.Error("imported record corrupt")
	}
	if err := dst.ImportStream("m", data, count); err == nil {
		t.Error("import over an existing stream succeeded")
	}
	if err := dst.ImportStream("empty", nil, 0); err != nil {
		t.Errorf("empty import: %v", err)
	}
	if dst.RecordCount("empty") != 0 {
		t.Error("empty import created a stream")
	}
	if _, _, err := NewStore().ExportStream("m"); !errors.Is(err, ErrNoRecords) {
		t.Errorf("ExportStream of unknown machine = %v, want ErrNoRecords", err)
	}
}

func TestFinalizeMachine(t *testing.T) {
	s := NewStore()
	s.Append("a", mkRecs(20, 1))
	s.Append("b", mkRecs(30, 2))
	if err := s.FinalizeMachine("a"); err != nil {
		t.Fatal(err)
	}
	// a is readable while b still accepts appends.
	if recs, err := s.Records("a"); err != nil || len(recs) != 20 {
		t.Fatalf("a after FinalizeMachine: %d, err=%v", len(recs), err)
	}
	if err := s.Append("b", mkRecs(10, 3)); err != nil {
		t.Errorf("append to b after finalizing a: %v", err)
	}
	if err := s.Append("a", mkRecs(10, 4)); err == nil {
		t.Error("append to finalized a succeeded")
	}
	if err := s.FinalizeMachine("a"); err != nil {
		t.Errorf("re-finalize: %v", err)
	}
	if err := s.FinalizeMachine("ghost"); err != nil {
		t.Errorf("finalize of absent machine: %v", err)
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	if recs, _ := s.Records("b"); len(recs) != 40 {
		t.Errorf("b: %d records", len(recs))
	}
}

// TestSaveLoadDirExactNames pins the Save→Load rename fix: machine names
// that SafeName rewrites (path separators, colons) or that collide onto
// one flattened stem must round-trip exactly, via the stem manifest
// written beside the segments.
func TestSaveLoadDirExactNames(t *testing.T) {
	names := map[string]int{
		"pool/01":         10, // rewritten: '/' → '_'
		"pool:01":         20, // rewritten, collides with pool/01 and pool_01
		"pool_01":         30, // already safe, collides
		"lab\\win\\nt-07": 40, // backslashes rewritten
		"plain-node":      50, // untouched by SafeName
	}
	s := NewStore()
	fid := uint64(1)
	for name, n := range names {
		if err := s.Append(name, mkRecs(n, fid)); err != nil {
			t.Fatal(err)
		}
		fid++
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}

	// One saved layout is left; the subtest keeps its name from when
	// the row layout ran beside it.
	t.Run("columnar", func(t *testing.T) {
		dir := t.TempDir()
		if _, err := s.SaveColumnarDir(dir, colstore.Options{}, nil); err != nil {
			t.Fatal(err)
		}
		segs, err := LoadColumnarDir(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) != len(names) {
			t.Fatalf("loaded machines %v, want the %d original names", loadedNames(segs), len(names))
		}
		for name, seg := range segs {
			want, ok := names[name]
			if !ok {
				t.Errorf("loaded machine %q is not an original name", name)
				continue
			}
			if n := seg.Records(); n != want {
				t.Errorf("machine %q: %d records, want %d", name, n, want)
			}
		}
	})
}

// TestLoadDirManifestMismatch pins the fail-closed contract: a segment
// file whose stem the manifest does not list is a typed error, not a
// silently stem-named machine.
func TestLoadDirManifestMismatch(t *testing.T) {
	dir := t.TempDir()
	s := NewStore()
	s.Append("alpha", mkRecs(5, 1))
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SaveColumnarDir(dir, colstore.Options{}, nil); err != nil {
		t.Fatal(err)
	}
	// A stray segment from some other corpus appears in the directory.
	data, err := os.ReadFile(filepath.Join(dir, "alpha.fsc"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "stray.fsc"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadColumnarDir(dir, nil); !errors.Is(err, ErrManifestMismatch) {
		t.Errorf("LoadColumnarDir with stray segment: err = %v, want ErrManifestMismatch", err)
	}
}

// TestLoadDirLegacyNoManifest pins backward compatibility: a corpus
// saved before the stem manifest existed loads with stem names.
func TestLoadDirLegacyNoManifest(t *testing.T) {
	dir := t.TempDir()
	s := NewStore()
	s.Append("node/a", mkRecs(5, 1))
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SaveColumnarDir(dir, colstore.Options{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, StemManifestName)); err != nil {
		t.Fatal(err)
	}
	segs, err := LoadColumnarDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := loadedNames(segs); len(got) != 1 || got[0] != "node_a" {
		t.Errorf("legacy load machines = %v, want [node_a]", got)
	}
}

// TestLoadDirRejectsRowStreams: a *.trz row stream from the older corpus
// layout fails the load and is named in the error, even beside valid
// segments.
func TestLoadDirRejectsRowStreams(t *testing.T) {
	dir := t.TempDir()
	s := NewStore()
	s.Append("alpha", mkRecs(5, 1))
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SaveColumnarDir(dir, colstore.Options{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "alpha.trz"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadColumnarDir(dir, nil)
	if err == nil || !strings.Contains(err.Error(), "alpha.trz") {
		t.Fatalf("load beside alpha.trz: err = %v, want an error naming it", err)
	}
}
