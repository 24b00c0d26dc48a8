package colstore

import "repro/internal/tracefmt"

// AppendRecords appends the records of recs that match p to b, projecting
// cols — the record-side twin of a segment scan. The predicate and the
// projection follow the scan's rules exactly, so filling from records
// yields the same rows and columns as ScanColumns over a segment that
// encodes them. This is how a row stream becomes a Batch without an
// encode step.
func (b *Batch) AppendRecords(recs []tracefmt.Record, p Predicate, cols ColumnSet) {
	var sel []int32 // nil = every record matches
	if len(p.Kinds) > 0 || p.MinStart > 0 || p.MaxStart > 0 {
		want := p.kindSet()
		sel = make([]int32, 0, len(recs))
		for i := range recs {
			if p.matchRow(want, uint64(recs[i].Kind), int64(recs[i].Start)) {
				sel = append(sel, int32(i))
			}
		}
	}
	n := len(recs)
	if sel != nil {
		n = len(sel)
	}
	b.N += n
	// Reserve every projected column once, then append row by row: one
	// pass over the (wide) records instead of one per column.
	b.Grow(cols, n)
	for j := 0; j < n; j++ {
		r := &recs[j]
		if sel != nil {
			r = &recs[sel[j]]
		}
		if cols&ScanKind != 0 {
			b.Kinds = append(b.Kinds, r.Kind)
		}
		if cols&ScanStart != 0 {
			b.Starts = append(b.Starts, r.Start)
		}
		if cols&ScanEnd != 0 {
			b.Ends = append(b.Ends, r.End)
		}
		if cols&ScanOffset != 0 {
			b.Offsets = append(b.Offsets, r.Offset)
		}
		if cols&ScanLength != 0 {
			b.Lengths = append(b.Lengths, r.Length)
		}
		if cols&ScanReturned != 0 {
			b.Returns = append(b.Returns, r.Returned)
		}
		if cols&ScanFileSize != 0 {
			b.FileSizes = append(b.FileSizes, r.FileSize)
		}
		if cols&ScanProc != 0 {
			b.Procs = append(b.Procs, r.Proc)
		}
		if cols&ScanFileID != 0 {
			b.FileIDs = append(b.FileIDs, r.FileID)
		}
		if cols&ScanStatus != 0 {
			b.Statuses = append(b.Statuses, r.Status)
		}
		if cols&ScanFlags != 0 {
			b.Flags = append(b.Flags, r.Flags)
		}
		if cols&ScanAnnot != 0 {
			b.Annots = append(b.Annots, r.Annot)
		}
		if cols&ScanFOFl != 0 {
			b.FOFls = append(b.FOFls, r.FOFl)
		}
		if cols&ScanBytePos != 0 {
			b.BytePositions = append(b.BytePositions, r.BytePos)
		}
		if cols&ScanDisposition != 0 {
			b.Dispositions = append(b.Dispositions, r.Disposition)
		}
		if cols&ScanOptions != 0 {
			b.Options = append(b.Options, r.Options)
		}
		if cols&ScanAttributes != 0 {
			b.Attributes = append(b.Attributes, r.Attributes)
		}
		if cols&ScanFsControl != 0 {
			b.FsControls = append(b.FsControls, r.FsControl)
		}
		if cols&ScanName != 0 {
			b.Names = append(b.Names, r.Name[:]...)
		}
		if cols&ScanMajor != 0 {
			b.Majors = append(b.Majors, r.Major)
		}
		if cols&ScanMinor != 0 {
			b.Minors = append(b.Minors, r.Minor)
		}
		if cols&ScanInfoClass != 0 {
			b.InfoClasses = append(b.InfoClasses, r.InfoClass)
		}
	}
}

// Record rebuilds row i as a whole record. The batch must project every
// column (ScanAllNumeric); without ScanName the name stays zero.
func (b *Batch) Record(i int) tracefmt.Record {
	r := tracefmt.Record{
		Kind:        b.Kinds[i],
		Major:       b.Majors[i],
		Minor:       b.Minors[i],
		Annot:       b.Annots[i],
		Flags:       b.Flags[i],
		FOFl:        b.FOFls[i],
		FileID:      b.FileIDs[i],
		Proc:        b.Procs[i],
		Status:      b.Statuses[i],
		Offset:      b.Offsets[i],
		Length:      b.Lengths[i],
		Returned:    b.Returns[i],
		FileSize:    b.FileSizes[i],
		BytePos:     b.BytePositions[i],
		Disposition: b.Dispositions[i],
		Options:     b.Options[i],
		Attributes:  b.Attributes[i],
		InfoClass:   b.InfoClasses[i],
		FsControl:   b.FsControls[i],
		Start:       b.Starts[i],
		End:         b.Ends[i],
	}
	if len(b.Names) > 0 {
		copy(r.Name[:], b.Names[i*tracefmt.NameLen:])
	}
	return r
}
