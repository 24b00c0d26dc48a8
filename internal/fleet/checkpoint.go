package fleet

import (
	"bytes"
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
)

// A checkpoint is one completed shard on disk: a small JSON header
// (machine identity, fingerprint, record count, process-name dimension),
// the machine's finalized compressed trace stream verbatim, its
// snapshots and its colstore segment. The stream bytes are stored
// exactly as the collect.Store holds them, so restore is an import, not
// a re-compression — the byte-identical-store invariant survives
// kill/resume — and the segment lets a resumed study save its corpus
// without re-encoding.
//
// Layout: magic, then little-endian length-prefixed sections
//
//	"FSFLEET2" | u32 len + header JSON | u64 len + stream | u32 snapCount
//	| per snapshot: u64 len + snapshot.Encode bytes
//	| u64 len + colstore segment
//
// The writer always adds the segment section. Loaders still accept a
// file that ends after the snapshots (written before segments were
// always carried) and treat it as "no segment".
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
	// A machine with no records gets an empty segment.
	recs, err := e.store.Records(sh.spec.Name)
	if err != nil && !errors.Is(err, collect.ErrNoRecords) {
		return err
	}
	seg, _, err := colstore.EncodeSegment(recs, colstore.Options{Metrics: e.colM})
	if err != nil {
		return fmt.Errorf("fleet: checkpoint segment %q: %w", sh.spec.Name, err)
	}
	data, err := encodeCheckpoint(&checkpoint{
		Name:        sh.spec.Name,
		Fingerprint: sh.spec.Fingerprint,
		Records:     count,
		ProcNames:   sh.procNames,
		Stream:      stream,
		Snapshots:   sh.snaps,
		Segment:     seg,
	})
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
// writes no segment section.
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
// the snapshots and segment are validated by their own decoders.
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
	// Segment section, absent from older checkpoints.
	if r.Len() > 0 {
		var segLen uint64
		if err := binary.Read(r, binary.LittleEndian, &segLen); err != nil {
			return nil, err
		}
		if segLen != uint64(r.Len()) {
			return nil, fmt.Errorf("segment section length %d != %d remaining bytes", segLen, r.Len())
		}
		seg := make([]byte, segLen)
		if _, err := io.ReadFull(r, seg); err != nil {
			return nil, err
		}
		// Validate now so restore never hands back a corrupt segment;
		// the count must also match the row stream's.
		opened, err := colstore.OpenSegment(seg, nil)
		if err != nil {
			return nil, fmt.Errorf("segment section: %w", err)
		}
		if opened.Records() != h.Records {
			return nil, fmt.Errorf("segment section holds %d records, header says %d", opened.Records(), h.Records)
		}
		ck.Segment = seg
	}
	return ck, nil
}
