package analysis

import (
	"bytes"
	"fmt"
	"sort"
	"sync"

	"repro/internal/colstore"
	"repro/internal/ntos/machine"
	"repro/internal/obs/trace"
	"repro/internal/sim"
	"repro/internal/tracefmt"
)

// streamBatchPool recycles the stream-order accumulation batch across
// machine constructions: the fill appends to it, the sorted copy is
// carved out exactly sized, and the (machine-sized) scratch goes back to
// the pool instead of the garbage collector.
var streamBatchPool = sync.Pool{New: func() any { return &colstore.Batch{} }}

// NewMachineTrace builds a trace from records in stream order. Trace
// buffers from different volumes of one machine interleave at flush
// granularity, so the stream need not be sorted. The records are filled
// straight into the trace table — no encode step — and the caller's
// slice is neither sorted nor kept.
func NewMachineTrace(name string, cat machine.Category, recs []tracefmt.Record) *MachineTrace {
	mt, _ := NewMachineTraceFrom(name, cat, func(fill func([]tracefmt.Record)) error {
		fill(recs)
		return nil
	})
	return mt
}

// NewMachineTraceFrom is NewMachineTrace over records delivered in
// chunks: read calls fill with successive chunks in stream order (fill
// keeps nothing of them), so a decoded stream never has to exist whole.
// An error from read is returned as is.
func NewMachineTraceFrom(name string, cat machine.Category, read func(fill func([]tracefmt.Record)) error) (*MachineTrace, error) {
	var pos []int32
	var blobs []byte
	tab, perm, err := sortedTable(nil, func(sb *colstore.Batch) error {
		return read(func(recs []tracefmt.Record) {
			base := sb.N
			sb.AppendRecords(recs, colstore.Predicate{}, colstore.ScanAllNumeric)
			for i := range recs {
				if recs[i].Name != ([tracefmt.NameLen]byte{}) {
					pos = append(pos, int32(base+i))
					blobs = append(blobs, recs[i].Name[:]...)
				}
			}
		})
	})
	if err != nil {
		return nil, err
	}
	pos, blobs = sortNames(pos, blobs, perm)
	return &MachineTrace{Name: name, Category: cat, tab: tab, namePos: pos, nameBlobs: blobs}, nil
}

// NewMachineTraceColumnar builds a trace from a columnar segment without
// materializing rows: every numeric column is scanned into the stream-
// order batch (the 64-byte name blobs stay encoded in the segment until
// Names or Rows asks for them). The scan, argsort and gather stages are
// recorded as child spans of parent; a nil parent traces nothing and
// builds the same trace.
func NewMachineTraceColumnar(name string, cat machine.Category, seg *colstore.Segment, parent *trace.Span) (*MachineTrace, error) {
	tab, perm, err := sortedTable(parent, func(sb *colstore.Batch) error {
		it := seg.Batches(colstore.Predicate{}, colstore.ScanAllNumeric)
		for {
			ok, err := it.Next(sb)
			if err != nil {
				it.Close()
				return err
			}
			if !ok {
				return nil
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", name, err)
	}
	return &MachineTrace{Name: name, Category: cat, tab: tab, seg: seg, perm: perm}, nil
}

// sortedTable is the one construction path of a trace table: fill
// appends the trace in stream order to a pooled batch, a stable argsort
// by start computes the by-start permutation (nil when the stream is
// already sorted), and a gather copies every column into an
// exactly-sized sorted table. Stability keeps flush order among equal
// timestamps.
func sortedTable(parent *trace.Span, fill func(sb *colstore.Batch) error) (*colstore.Batch, []int32, error) {
	sb := streamBatchPool.Get().(*colstore.Batch)
	defer streamBatchPool.Put(sb)
	sb.Reset()
	scan := parent.Child("scan")
	err := fill(sb)
	scan.AnnotateInt("rows", int64(sb.N))
	scan.Finish()
	if err != nil {
		return nil, nil, err
	}

	// Trace buffers from different volumes interleave at flush
	// granularity, so the stream is near-sorted and the permutation
	// near-identity.
	argsort := parent.Child("argsort")
	var perm []int32
	if !startsSorted(sb.Starts) {
		perm = make([]int32, sb.N)
		for i := range perm {
			perm[i] = int32(i)
		}
		sort.SliceStable(perm, func(a, b int) bool { return sb.Starts[perm[a]] < sb.Starts[perm[b]] })
	} else {
		argsort.Annotate("sorted", "already")
	}
	argsort.Finish()

	gather := parent.Child("gather")
	tab := permutedBatch(sb, perm)
	gather.Finish()
	return tab, perm, nil
}

// startsSorted reports whether the start column is already non-decreasing
// (the common case: a single-volume machine flushes in order).
func startsSorted(starts []sim.Time) bool {
	for i := 1; i < len(starts); i++ {
		if starts[i] < starts[i-1] {
			return false
		}
	}
	return true
}

// permute builds the reordered (perm non-nil) or verbatim (perm nil)
// exactly-sized copy of one column vector; nil in, nil out so
// unprojected columns pass through. Sequential writes with near-identity
// reads keep the pass prefetch-friendly on the near-sorted streams the
// trace buffers produce.
func permute[T any](src []T, perm []int32) []T {
	if src == nil {
		return nil
	}
	out := make([]T, len(src))
	if perm == nil {
		copy(out, src)
		return out
	}
	for i, p := range perm {
		out[i] = src[p]
	}
	return out
}

// permutedBatch builds the by-start sorted, exactly-sized copy of every
// projected column of b (perm nil = already sorted, plain copy).
func permutedBatch(b *colstore.Batch, perm []int32) *colstore.Batch {
	return &colstore.Batch{
		N:             b.N,
		Kinds:         permute(b.Kinds, perm),
		Starts:        permute(b.Starts, perm),
		Ends:          permute(b.Ends, perm),
		Offsets:       permute(b.Offsets, perm),
		Lengths:       permute(b.Lengths, perm),
		Returns:       permute(b.Returns, perm),
		FileSizes:     permute(b.FileSizes, perm),
		Procs:         permute(b.Procs, perm),
		FileIDs:       permute(b.FileIDs, perm),
		Statuses:      permute(b.Statuses, perm),
		Flags:         permute(b.Flags, perm),
		Annots:        permute(b.Annots, perm),
		FOFls:         permute(b.FOFls, perm),
		BytePositions: permute(b.BytePositions, perm),
		Dispositions:  permute(b.Dispositions, perm),
		Options:       permute(b.Options, perm),
		Attributes:    permute(b.Attributes, perm),
		FsControls:    permute(b.FsControls, perm),
		Majors:        permute(b.Majors, perm),
		Minors:        permute(b.Minors, perm),
		InfoClasses:   permute(b.InfoClasses, perm),
	}
}

// sortNames maps name pairs at ascending stream positions onto table
// positions (perm nil = the stream was sorted, positions carry over) and
// returns them ascending, blobs alongside.
func sortNames(pos []int32, blobs []byte, perm []int32) ([]int32, []byte) {
	if perm == nil || len(pos) == 0 {
		return pos, blobs
	}
	const nl = tracefmt.NameLen
	blobOf := make([]int32, len(perm)) // stream position → blob index + 1
	for k, p := range pos {
		blobOf[p] = int32(k) + 1
	}
	outPos := make([]int32, 0, len(pos))
	outBlobs := make([]byte, 0, len(blobs))
	for i, p := range perm {
		if k := int(blobOf[p]); k > 0 {
			outPos = append(outPos, int32(i))
			outBlobs = append(outBlobs, blobs[(k-1)*nl:k*nl]...)
		}
	}
	return outPos, outBlobs
}

// segmentNames reads the EvNameMap name blobs of a segment-built trace
// with a name-column pushdown scan and pairs them with their table
// positions, ascending. The file ids, the by-start order and the stream
// positions of the name records are all in the table and the
// permutation already, so only the blob ↔ row correspondence has to be
// reconstructed.
func segmentNames(mt *MachineTrace) ([]int32, []byte) {
	t := mt.tab
	// Table rows of the name records, ascending = by-start stable order.
	var rows []int32
	for i, k := range t.Kinds {
		if k == tracefmt.EvNameMap {
			rows = append(rows, int32(i))
		}
	}
	if len(rows) == 0 {
		return nil, nil
	}
	nb, err := mt.seg.ScanColumns(colstore.Predicate{
		Kinds: []tracefmt.EventKind{tracefmt.EvNameMap},
	}, colstore.ScanName)
	if err != nil {
		panic(fmt.Sprintf("analysis: scanning names of columnar trace %s: %v", mt.Name, err))
	}
	if nb.N != len(rows) {
		panic(fmt.Sprintf("analysis: columnar trace %s: %d name blobs for %d name records", mt.Name, nb.N, len(rows)))
	}
	if mt.perm == nil {
		return rows, nb.Names // blob j belongs to rows[j]
	}
	// Blob k is the k-th name record in stream order; table row rows[j]
	// came from stream position perm[rows[j]], so ranking the rows by
	// stream position recovers each row's blob.
	ord := make([]int32, len(rows))
	for j := range ord {
		ord[j] = int32(j)
	}
	sort.Slice(ord, func(a, b int) bool { return mt.perm[rows[ord[a]]] < mt.perm[rows[ord[b]]] })
	const nl = tracefmt.NameLen
	blobs := make([]byte, len(nb.Names))
	for k, j := range ord {
		copy(blobs[int(j)*nl:(int(j)+1)*nl], nb.Names[k*nl:])
	}
	return rows, blobs
}

// nameString is a name blob up to its first NUL.
func nameString(b []byte) string {
	if n := bytes.IndexByte(b, 0); n >= 0 {
		b = b[:n]
	}
	return string(b)
}
