package fleet

import (
	"bytes"
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
// header, one snapshot and a segment.
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
		ckptHeader: ckptHeader{Name: "m00", Fingerprint: "fp", ProcNames: map[uint32]string{1: "a.exe"}},
		Snapshots:  []*snapshot.Snapshot{snapshot.Take("m00", `C:`, fs, 30)},
		Segment:    seg,
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

// TestCheckpointRejectsOldMagic: checkpoints of earlier layouts — the
// JSON-snapshot FSFLEET1 and the stream-carrying FSFLEET2 — fail to
// decode, so their machines re-run.
func TestCheckpointRejectsOldMagic(t *testing.T) {
	ck := sampleCheckpoint(t)
	data, err := encodeCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeCheckpoint(data, "fp")
	if err != nil {
		t.Fatalf("own encoding rejected: %v", err)
	}
	if got.Name != ck.Name || len(got.Snapshots) != 1 || !bytes.Equal(got.Segment, ck.Segment) {
		t.Fatalf("decoded %q, %d snapshots, segment equal %v", got.Name, len(got.Snapshots), bytes.Equal(got.Segment, ck.Segment))
	}
	for _, magic := range []string{"FSFLEET1", "FSFLEET2"} {
		old := append([]byte(nil), data...)
		copy(old, magic)
		if _, err := decodeCheckpoint(old, "fp"); err == nil {
			t.Errorf("accepted a %s checkpoint", magic)
		}
	}
}

// TestCheckpointWithoutSegment: the segment is the checkpoint's only
// copy of the machine's trace, so a file that ends after its snapshots
// fails to decode and its machine re-runs.
func TestCheckpointWithoutSegment(t *testing.T) {
	ck := sampleCheckpoint(t)
	data, err := encodeCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeCheckpoint(data[:len(data)-len(ck.Segment)-8], "fp"); err == nil {
		t.Error("accepted a checkpoint without a segment section")
	}
}

// FuzzLoadCheckpoint: any input either fails to decode or yields a
// checkpoint whose snapshots resolve and whose segment opens.
func FuzzLoadCheckpoint(f *testing.F) {
	ck := sampleCheckpoint(f)
	full, err := encodeCheckpoint(ck)
	if err != nil {
		f.Fatal(err)
	}
	ck.Segment, _, err = colstore.EncodeSegment(nil, colstore.Options{})
	if err != nil {
		f.Fatal(err)
	}
	emptySegment, err := encodeCheckpoint(ck)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(emptySegment)
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
		if _, err := colstore.OpenSegment(ck.Segment, nil); err != nil {
			t.Fatalf("accepted checkpoint's segment does not open: %v", err)
		}
	})
}
