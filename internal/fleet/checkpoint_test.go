package fleet

import (
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/colstore"
	"repro/internal/ntos/fsys"
	"repro/internal/ntos/types"
	"repro/internal/ntos/volume"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/tracefmt"
)

// sampleCheckpoint builds a checkpoint with every section present: a
// header, an (opaque) stream, one snapshot and a segment.
func sampleCheckpoint(tb testing.TB) *checkpoint {
	tb.Helper()
	recs := make([]tracefmt.Record, 40)
	for i := range recs {
		recs[i] = tracefmt.Record{Kind: tracefmt.EvRead, FileID: types.FileObjectID(i % 7),
			Start: sim.Time(i) * sim.Time(sim.Millisecond), End: sim.Time(i+1) * sim.Time(sim.Millisecond)}
	}
	seg, _, err := colstore.EncodeSegment(recs, colstore.Options{BlockRecords: 16})
	if err != nil {
		tb.Fatal(err)
	}
	fs := fsys.New(volume.FlavorNTFS, 1<<30)
	fs.MkdirAll(`\docs`, 10)
	fs.CreateFile(`\docs\a.txt`, 100, types.AttrNormal, 20)
	return &checkpoint{
		Name:        "m00",
		Fingerprint: "fp",
		Records:     len(recs),
		ProcNames:   map[uint32]string{1: "a.exe"},
		Stream:      []byte("stream bytes"),
		Snapshots:   []*snapshot.Snapshot{snapshot.Take("m00", `C:`, fs, 30)},
		Segment:     seg,
	}
}

// TestCheckpointHeaderLengthBounded: a header length beyond the file is
// rejected before anything is allocated for it.
func TestCheckpointHeaderLengthBounded(t *testing.T) {
	data := binary.LittleEndian.AppendUint32([]byte(ckptMagic), 0xffffffff)
	data = append(data, `{"fingerprint":"fp"}`...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeCheckpoint(data, "fp")
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("accepted a header length past the end of the file")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("rejecting an oversized header allocated %d bytes", n)
	}
}

func TestCheckpointRejectsOldMagic(t *testing.T) {
	data, err := encodeCheckpoint(sampleCheckpoint(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeCheckpoint(data, "fp"); err != nil {
		t.Fatalf("own encoding rejected: %v", err)
	}
	copy(data, "FSFLEET1")
	if _, err := decodeCheckpoint(data, "fp"); err == nil {
		t.Error("accepted a checkpoint from the JSON-snapshot layout")
	}
}

// TestCheckpointWithoutSegment: a checkpoint that ends after its
// snapshots (written before every checkpoint carried a segment) still
// decodes, with no segment to reuse.
func TestCheckpointWithoutSegment(t *testing.T) {
	ck := sampleCheckpoint(t)
	ck.Segment = nil
	data, err := encodeCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeCheckpoint(data, "fp")
	if err != nil {
		t.Fatalf("checkpoint without a segment section rejected: %v", err)
	}
	if got.Segment != nil || got.Records != ck.Records || len(got.Snapshots) != 1 {
		t.Fatalf("decoded %d records, %d snapshots, segment %v", got.Records, len(got.Snapshots), got.Segment != nil)
	}
}

// FuzzLoadCheckpoint: any input either fails to decode or yields a
// checkpoint whose snapshots resolve and whose segment (when present)
// opens and holds the header's record count.
func FuzzLoadCheckpoint(f *testing.F) {
	ck := sampleCheckpoint(f)
	full, err := encodeCheckpoint(ck)
	if err != nil {
		f.Fatal(err)
	}
	ck.Segment = nil
	noSegment, err := encodeCheckpoint(ck)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(noSegment)
	f.Add(full[:len(full)/2])
	f.Add(binary.LittleEndian.AppendUint32([]byte(ckptMagic), 0xffffffff))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := decodeCheckpoint(data, "fp")
		if err != nil {
			return
		}
		for _, s := range ck.Snapshots {
			s.Entries()
		}
		if ck.Segment == nil {
			return
		}
		seg, err := colstore.OpenSegment(ck.Segment, nil)
		if err != nil {
			t.Fatalf("accepted checkpoint's segment does not open: %v", err)
		}
		if seg.Records() != ck.Records {
			t.Fatalf("segment holds %d records, header says %d", seg.Records(), ck.Records)
		}
	})
}
