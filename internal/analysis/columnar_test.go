package analysis

import (
	"fmt"
	"testing"

	"repro/internal/colstore"
	"repro/internal/ntos/machine"
	"repro/internal/ntos/types"
	"repro/internal/sim"
	"repro/internal/tracefmt"
)

// TestColumnarTraceEquivalence pins that the columnar constructor is
// indistinguishable from the record one: same sorted records (names
// included), same per-kind index lists, same open-time series —
// including the stable tie-break among records sharing a start
// timestamp.
func TestColumnarTraceEquivalence(t *testing.T) {
	rng := sim.NewRNG(77)
	recs := make([]tracefmt.Record, 15000)
	for i := range recs {
		recs[i].Kind = tracefmt.EventKind(rng.Int63n(int64(tracefmt.NumEventKinds)))
		// Coarse timestamps force ties, exercising sort stability.
		recs[i].Start = sim.Time(rng.Int63n(500) * 1000)
		recs[i].End = recs[i].Start + sim.Time(rng.Int63n(100))
		recs[i].FileID = types.FileObjectID(1 + i%97)
		recs[i].Length = int32(i)
		if i%11 == 0 {
			// Names on any kind must survive both constructions.
			recs[i].SetName(fmt.Sprintf(`C:\f%d`, i))
		}
	}

	data, _, err := colstore.EncodeSegment(recs, colstore.Options{BlockRecords: 1024})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := colstore.OpenSegment(data, nil)
	if err != nil {
		t.Fatal(err)
	}

	row := NewMachineTrace("m", machine.Personal, recs)
	col, err := NewMachineTraceColumnar("m", machine.Personal, seg, nil)
	if err != nil {
		t.Fatal(err)
	}

	colRows := col.Rows()
	if len(colRows) != len(row.Rows()) {
		t.Fatalf("columnar trace has %d records, row %d", len(colRows), len(row.Rows()))
	}
	for i := range row.Rows() {
		if colRows[i] != row.Rows()[i] {
			t.Fatalf("record %d differs after sorting (stability broken?)", i)
		}
	}

	rix, cix := row.Index(), col.Index()
	for k := 0; k < tracefmt.NumEventKinds; k++ {
		rl, cl := rix.OfKind(tracefmt.EventKind(k)), cix.OfKind(tracefmt.EventKind(k))
		if len(rl) != len(cl) {
			t.Fatalf("kind %d: %d positions vs %d", k, len(rl), len(cl))
		}
		for i := range rl {
			if rl[i] != cl[i] {
				t.Fatalf("kind %d: position %d differs (%d vs %d)", k, i, rl[i], cl[i])
			}
		}
	}
	ro, co := rix.OpenTimes(), cix.OpenTimes()
	if len(ro) != len(co) {
		t.Fatalf("open times: %d vs %d", len(ro), len(co))
	}
	for i := range ro {
		if ro[i] != co[i] {
			t.Fatalf("open time %d differs", i)
		}
	}
}

// TestColumnarKernelHotPathAllocs pins the steady-state allocation
// behaviour of the vectorized kernel hot paths: once the trace's lazy
// views are warm, a kernel pass over the column vectors allocates only
// the small constant the index merge costs — nothing per record. A
// per-record allocation on this 15,000-record fixture would blow the
// bound by three orders of magnitude.
func TestColumnarKernelHotPathAllocs(t *testing.T) {
	rng := sim.NewRNG(41)
	kinds := []tracefmt.EventKind{
		tracefmt.EvRead, tracefmt.EvWrite, tracefmt.EvFastRead,
		tracefmt.EvFastWrite, tracefmt.EvCreate, tracefmt.EvClose,
	}
	recs := make([]tracefmt.Record, 15000)
	for i := range recs {
		recs[i].Kind = kinds[rng.Int63n(int64(len(kinds)))]
		recs[i].Start = sim.Time(rng.Int63n(1e9))
		recs[i].End = recs[i].Start + sim.Time(rng.Int63n(1e6))
		recs[i].FileID = types.FileObjectID(1 + i%53)
		recs[i].Length = int32(rng.Int63n(1 << 16))
	}
	data, _, err := colstore.EncodeSegment(recs, colstore.Options{BlockRecords: 1024})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := colstore.OpenSegment(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	mt, err := NewMachineTraceColumnar("m", machine.Personal, seg, nil)
	if err != nil {
		t.Fatal(err)
	}
	mt.Index() // warm the lazy per-kind index

	passes := map[string]func(){
		"fastio-shares":    func() { FastIOShares(mt) },
		"controls-records": func() { Controls(mt, nil) },
	}
	for name, pass := range passes {
		pass() // warm
		if avg := testing.AllocsPerRun(20, pass); avg > 8 {
			t.Errorf("%s: %.1f allocs per pass, want the index-merge constant (<= 8)", name, avg)
		}
	}
}
