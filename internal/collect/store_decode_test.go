package collect

import (
	"errors"
	"strings"
	"testing"
)

// TestRecordsAllocations pins the pooled decode path: the result slice is
// pre-sized from the stored count and the flate/stream readers come from
// pools, so a decode costs a handful of allocations — not one per record
// as the append-growing Next loop did.
func TestRecordsAllocations(t *testing.T) {
	const n = 50000
	s := NewStore(nil)
	if err := s.Append("m", mkRecs(n, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	// Warm the pools so the measurement sees the steady state.
	if _, err := s.Records("m"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		recs, err := s.Records("m")
		if err != nil || len(recs) != n {
			t.Fatalf("decode: %v (%d records)", err, len(recs))
		}
	})
	// The record layer is allocation-free (pre-sized slice, pooled
	// readers; see tracefmt's ReadInto test): what remains is flate's
	// per-compressed-block huffman table rebuilds, which scale with
	// stream bytes, not records. The old Next-and-append path allocated
	// at least once per record; pin well below that.
	if allocs >= n/5 {
		t.Errorf("Records allocated %.0f times for %d records, want < %d", allocs, n, n/5)
	}
}

// TestRecordsCountVerified pins that the stored record count is checked
// against the stream: both a short and a long stream are corruption
// errors, never a silently truncated or padded result.
func TestRecordsCountVerified(t *testing.T) {
	s := NewStore(nil)
	if err := s.Append("m", mkRecs(100, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	// Corrupt copies: the same compressed bytes under a wrong count.
	src := s.streams["m"]
	withCount := func(count int) *Store {
		c := NewStore(nil)
		st := &stream{closed: true, count: count}
		st.buf.Write(src.buf.Bytes())
		c.streams["m"] = st
		return c
	}

	short := withCount(src.count + 1)
	if _, err := short.Records("m"); err == nil || !strings.Contains(err.Error(), "ended after") {
		t.Errorf("over-count decode error = %v, want stream-ended error", err)
	} else if !errors.Is(err, ErrCountMismatch) {
		t.Errorf("over-count decode error %v does not wrap ErrCountMismatch", err)
	} else if errors.Is(err, ErrNoRecords) {
		t.Errorf("count mismatch %v must not look like the benign ErrNoRecords", err)
	}

	long := withCount(src.count - 1)
	if _, err := long.Records("m"); err == nil || !strings.Contains(err.Error(), "more than") {
		t.Errorf("under-count decode error = %v, want extra-records error", err)
	} else if !errors.Is(err, ErrCountMismatch) {
		t.Errorf("under-count decode error %v does not wrap ErrCountMismatch", err)
	}
}

// TestRecordsMatchAppended is the round-trip check for the pre-sized
// decode: everything appended comes back bit-exact, in order.
func TestRecordsMatchAppended(t *testing.T) {
	s := NewStore(nil)
	want := mkRecs(3123, 7) // not a multiple of the writer chunk size
	if err := s.Append("m", want[:1000]); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("m", want[1000:]); err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	got, err := s.Records("m")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}
