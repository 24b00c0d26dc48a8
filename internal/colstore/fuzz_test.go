package colstore

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/tracefmt"
)

// FuzzColstoreRoundTrip treats the fuzz input as a row-format record
// stream, encodes it columnar, and requires the decode to be
// byte-identical under re-encoding (the SHA-256 equivalence invariant).
func FuzzColstoreRoundTrip(f *testing.F) {
	seed := genRecords(300, 41)
	var buf bytes.Buffer
	if err := tracefmt.WriteAll(&buf, seed); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes(), uint16(64))
	f.Add([]byte{}, uint16(1))
	f.Fuzz(func(t *testing.T, raw []byte, blockRecs uint16) {
		n := len(raw) / tracefmt.RecordSize
		if n > 4096 {
			n = 4096
		}
		recs := make([]tracefmt.Record, 0, n)
		rest := raw
		for i := 0; i < n; i++ {
			var r tracefmt.Record
			var err error
			if rest, err = r.Decode(rest); err != nil {
				return // not a valid row stream; nothing to assert
			}
			recs = append(recs, r)
		}
		data, sum, err := EncodeSegment(recs, Options{BlockRecords: int(blockRecs%512) + 1})
		if err != nil {
			t.Fatalf("encode valid records: %v", err)
		}
		seg, err := OpenSegment(data, nil)
		if err != nil {
			t.Fatalf("open own encoding: %v", err)
		}
		got, err := seg.ReadAll()
		if err != nil {
			t.Fatalf("read own encoding: %v", err)
		}
		if len(got) != len(recs) {
			t.Fatalf("round trip lost records: %d != %d", len(got), len(recs))
		}
		for i := range got {
			if got[i] != recs[i] {
				t.Fatalf("record %d changed in round trip", i)
			}
		}
		if err := seg.VerifySHA(); err != nil {
			t.Fatalf("digest mismatch after round trip: %v", err)
		}
		if sum.SHA != seg.SHA256() {
			t.Fatal("writer summary and footer disagree on digest")
		}
	})
}

// FuzzBlockFooter feeds arbitrary (and mutated-valid) bytes to
// OpenSegment and the scan paths: corrupt segments must fail closed
// with an error, never panic, and never return a wrong record count
// against a footer that parsed.
func FuzzBlockFooter(f *testing.F) {
	recs := genRecords(700, 43)
	data, _, err := EncodeSegment(recs, Options{BlockRecords: 128})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data, -1, byte(0))
	f.Add(data, len(data)/2, byte(0x10))
	f.Add([]byte(Magic+Magic), -1, byte(0))
	foot := len(data) - len(Magic) - 4
	f.Add(data, foot, byte(0xff))         // footer length field
	f.Add(data, foot-10, byte(0x01))      // block meta
	f.Add(data, len(Magic)+2, byte(0x80)) // first block header
	f.Fuzz(func(t *testing.T, raw []byte, flip int, mask byte) {
		mut := append([]byte(nil), raw...)
		if flip >= 0 && flip < len(mut) && mask != 0 {
			mut[flip] ^= mask
		}
		seg, err := OpenSegment(mut, nil)
		if err != nil {
			return
		}
		got, err := seg.ReadAll()
		if err == nil && len(got) != seg.Records() {
			t.Fatalf("ReadAll returned %d records against a footer claiming %d", len(got), seg.Records())
		}
		// Scans over a possibly-corrupt segment must also fail closed:
		// any error is acceptable, a panic or bad result is not.
		_, _ = seg.ScanColumns(Predicate{Kinds: []tracefmt.EventKind{tracefmt.EvRead}}, ScanStart|ScanLength)
		_, _ = seg.Stats()
	})
}

// FuzzRecordFill checks the record↔column mapping from both sides: a
// full fill from records rebuilds every record exactly (names on any
// kind included), and a fill under any predicate and projection equals
// the segment scan of the same records encoded columnar.
func FuzzRecordFill(f *testing.F) {
	seed := genRecords(300, 47)
	for i := range seed {
		if i%7 == 0 {
			seed[i].SetName(fmt.Sprintf(`C:\dir\file%d.txt`, i))
		}
	}
	var buf bytes.Buffer
	if err := tracefmt.WriteAll(&buf, seed); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes(), uint16(64), []byte{byte(tracefmt.EvRead), byte(tracefmt.EvNameMap)}, int64(0), int64(0), uint32(ScanKind|ScanStart|ScanName))
	f.Add(buf.Bytes(), uint16(17), []byte{}, int64(seed[100].Start), int64(seed[200].Start), uint32(ScanAllNumeric))
	f.Add(buf.Bytes(), uint16(33), []byte{}, int64(0), int64(seed[150].Start), uint32(ScanKind|ScanStart|ScanEnd))
	f.Add([]byte{}, uint16(1), []byte{}, int64(0), int64(0), uint32(0))
	f.Fuzz(func(t *testing.T, raw []byte, blockRecs uint16, kinds []byte, minStart, maxStart int64, cols uint32) {
		n := len(raw) / tracefmt.RecordSize
		if n > 4096 {
			n = 4096
		}
		recs := make([]tracefmt.Record, 0, n)
		rest := raw
		for i := 0; i < n; i++ {
			var r tracefmt.Record
			var err error
			if rest, err = r.Decode(rest); err != nil {
				return // not a valid row stream; nothing to assert
			}
			recs = append(recs, r)
		}

		full := &Batch{}
		full.AppendRecords(recs, Predicate{}, ScanAllNumeric|ScanName)
		if full.N != len(recs) {
			t.Fatalf("full fill holds %d rows for %d records", full.N, len(recs))
		}
		for i := range recs {
			if full.Record(i) != recs[i] {
				t.Fatalf("record %d changed through the fill", i)
			}
		}

		data, _, err := EncodeSegment(recs, Options{BlockRecords: int(blockRecs%512) + 1})
		if err != nil {
			t.Fatalf("encode valid records: %v", err)
		}
		seg, err := OpenSegment(data, nil)
		if err != nil {
			t.Fatalf("open own encoding: %v", err)
		}
		p := Predicate{MinStart: sim.Time(minStart), MaxStart: sim.Time(maxStart)}
		for _, k := range kinds {
			p.Kinds = append(p.Kinds, tracefmt.EventKind(k))
		}
		proj := ColumnSet(cols) & (ScanAllNumeric | ScanName)
		want, err := seg.ScanColumns(p, proj)
		if err != nil {
			t.Fatalf("scan own encoding: %v", err)
		}
		got := &Batch{}
		got.AppendRecords(recs, p, proj)
		if d := batchDiff(got, want); d != "" {
			t.Fatalf("fill and scan disagree under %+v cols %#x: %s", p, proj, d)
		}
	})
}

// batchDiff names the first field in which two batches differ, treating
// nil and empty columns alike ("" when equal).
func batchDiff(a, b *Batch) string {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Slice && fa.Len() == 0 && fb.Len() == 0 {
			continue
		}
		if !reflect.DeepEqual(fa.Interface(), fb.Interface()) {
			return va.Type().Field(i).Name
		}
	}
	return ""
}
