package fleet

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/collect"
	"repro/internal/colstore"
	"repro/internal/snapshot"
	"repro/internal/tracefmt"
)

// A checkpoint is one completed shard on disk: a small JSON header
// (machine identity, fingerprint, record count, process-name dimension),
// the machine's finalized compressed trace stream verbatim, and its
// snapshots. The stream bytes are stored exactly as the collect.Store
// holds them, so restore is an import, not a re-compression — the
// byte-identical-store invariant survives kill/resume.
//
// Layout: magic, then little-endian length-prefixed sections
//
//	"FSFLEET2" | u32 len + header JSON | u64 len + stream | u32 snapCount
//	| per snapshot: u64 len + snapshot.Encode bytes
//	| optional: u64 len + columnar segment (Config.Columnar)
//
// The columnar section is optional: with Columnar off the file ends
// after the snapshots, and loaders treat the absent section as "no
// segment". The row stream stays verbatim either way, preserving the
// byte-identical-store invariant.
//
// Files are written to <name>.ckpt.tmp and renamed into place, so a kill
// mid-write leaves no valid-looking partial checkpoint; loaders treat any
// malformed file (FSFLEET1 files from the JSON-snapshot layout included)
// as "not checkpointed" and re-run the machine.

const ckptMagic = "FSFLEET2"

type ckptHeader struct {
	Name        string            `json:"name"`
	Fingerprint string            `json:"fingerprint"`
	Records     int               `json:"records"`
	ProcNames   map[uint32]string `json:"proc_names,omitempty"`
}

type checkpoint struct {
	Name        string
	Fingerprint string
	Records     int
	ProcNames   map[uint32]string
	Stream      []byte
	Snapshots   []*snapshot.Snapshot
	Segment     []byte
}

func checkpointPath(dir, machine string) string {
	return filepath.Join(dir, collect.SafeName(machine)+".ckpt")
}

// writeCheckpoint persists a completed shard atomically.
func (e *Engine) writeCheckpoint(sh *shard) error {
	stream, count, err := e.store.ExportStream(sh.spec.Name)
	if err != nil && !errors.Is(err, collect.ErrNoRecords) {
		return err
	}
	ck := &checkpoint{
		Name:        sh.spec.Name,
		Fingerprint: sh.spec.Fingerprint,
		Records:     count,
		ProcNames:   sh.procNames,
		Stream:      stream,
		Snapshots:   sh.snaps,
	}
	if e.cfg.Columnar {
		recs, err := decodeForColumnar(stream, count)
		if err != nil {
			return err
		}
		ck.Segment, _, err = colstore.EncodeSegment(recs, colstore.Options{Metrics: e.colM})
		if err != nil {
			return fmt.Errorf("fleet: columnar checkpoint %q: %w", sh.spec.Name, err)
		}
	}
	data, err := encodeCheckpoint(ck)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(e.cfg.CheckpointDir, 0o755); err != nil {
		return err
	}
	final := checkpointPath(e.cfg.CheckpointDir, sh.spec.Name)
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, final)
}

// encodeCheckpoint lays ck out in the checkpoint format; a nil Segment
// writes no columnar section.
func encodeCheckpoint(ck *checkpoint) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(ckptMagic)
	head, err := json.Marshal(ckptHeader{
		Name:        ck.Name,
		Fingerprint: ck.Fingerprint,
		Records:     ck.Records,
		ProcNames:   ck.ProcNames,
	})
	if err != nil {
		return nil, err
	}
	binary.Write(&buf, binary.LittleEndian, uint32(len(head)))
	buf.Write(head)
	binary.Write(&buf, binary.LittleEndian, uint64(len(ck.Stream)))
	buf.Write(ck.Stream)
	binary.Write(&buf, binary.LittleEndian, uint32(len(ck.Snapshots)))
	for _, snap := range ck.Snapshots {
		data := snapshot.Encode(snap)
		binary.Write(&buf, binary.LittleEndian, uint64(len(data)))
		buf.Write(data)
	}
	if ck.Segment != nil {
		binary.Write(&buf, binary.LittleEndian, uint64(len(ck.Segment)))
		buf.Write(ck.Segment)
	}
	return buf.Bytes(), nil
}

// loadCheckpoint reads and validates one checkpoint file. Any structural
// problem or fingerprint mismatch is an error; callers treat every error
// as "re-run this machine".
func loadCheckpoint(path, fingerprint string) (*checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ck, err := decodeCheckpoint(data, fingerprint)
	if err != nil {
		return nil, fmt.Errorf("fleet: %s: %w", path, err)
	}
	return ck, nil
}

// decodeCheckpoint parses checkpoint bytes, failing closed: every length
// is bounded by the bytes that remain before anything is allocated, and
// the snapshots and columnar segment are validated by their own decoders.
func decodeCheckpoint(data []byte, fingerprint string) (*checkpoint, error) {
	r := bytes.NewReader(data)
	magic := make([]byte, len(ckptMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != ckptMagic {
		return nil, errors.New("bad magic")
	}
	var headLen uint32
	if err := binary.Read(r, binary.LittleEndian, &headLen); err != nil {
		return nil, err
	}
	if uint64(headLen) > uint64(r.Len()) {
		return nil, errors.New("truncated header")
	}
	head := make([]byte, headLen)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, err
	}
	var h ckptHeader
	if err := json.Unmarshal(head, &h); err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	if h.Fingerprint != fingerprint {
		return nil, errors.New("fingerprint mismatch (checkpoint from a different study configuration)")
	}
	var streamLen uint64
	if err := binary.Read(r, binary.LittleEndian, &streamLen); err != nil {
		return nil, err
	}
	if streamLen > uint64(r.Len()) {
		return nil, errors.New("truncated stream")
	}
	stream := make([]byte, streamLen)
	if _, err := io.ReadFull(r, stream); err != nil {
		return nil, err
	}
	var snapCount uint32
	if err := binary.Read(r, binary.LittleEndian, &snapCount); err != nil {
		return nil, err
	}
	ck := &checkpoint{
		Name:        h.Name,
		Fingerprint: h.Fingerprint,
		Records:     h.Records,
		ProcNames:   h.ProcNames,
		Stream:      stream,
	}
	for i := uint32(0); i < snapCount; i++ {
		var snapLen uint64
		if err := binary.Read(r, binary.LittleEndian, &snapLen); err != nil {
			return nil, err
		}
		if snapLen > uint64(r.Len()) {
			return nil, errors.New("truncated snapshot")
		}
		raw := make([]byte, snapLen)
		if _, err := io.ReadFull(r, raw); err != nil {
			return nil, err
		}
		snap, err := snapshot.Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("snapshot %d: %w", i, err)
		}
		ck.Snapshots = append(ck.Snapshots, snap)
	}
	// Optional columnar section.
	if r.Len() > 0 {
		var segLen uint64
		if err := binary.Read(r, binary.LittleEndian, &segLen); err != nil {
			return nil, err
		}
		if segLen != uint64(r.Len()) {
			return nil, fmt.Errorf("columnar section length %d != %d remaining bytes", segLen, r.Len())
		}
		seg := make([]byte, segLen)
		if _, err := io.ReadFull(r, seg); err != nil {
			return nil, err
		}
		// Validate now so restore never hands back a corrupt segment;
		// the count must also match the row stream's.
		opened, err := colstore.OpenSegment(seg, nil)
		if err != nil {
			return nil, fmt.Errorf("columnar section: %w", err)
		}
		if opened.Records() != h.Records {
			return nil, fmt.Errorf("columnar section holds %d records, header says %d", opened.Records(), h.Records)
		}
		ck.Segment = seg
	}
	return ck, nil
}

// decodeForColumnar materializes a checkpointed row stream's records for
// columnar encoding. An empty stream (machine with no records) yields no
// records and, upstream, an empty segment.
func decodeForColumnar(stream []byte, count int) ([]tracefmt.Record, error) {
	if len(stream) == 0 {
		return nil, nil
	}
	zr := flate.NewReader(bytes.NewReader(stream))
	defer zr.Close()
	rd := tracefmt.NewReader(zr)
	recs := make([]tracefmt.Record, count)
	for i := range recs {
		if err := rd.ReadInto(&recs[i]); err != nil {
			return nil, fmt.Errorf("fleet: columnar encode: record %d of %d: %w", i, count, err)
		}
	}
	return recs, nil
}
