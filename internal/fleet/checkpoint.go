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
// (machine identity, fingerprint, process-name dimension), its snapshots
// and its colstore segment — the one encoded copy of the machine's trace,
// the same bytes the collect.Store keeps and a save writes as <stem>.fsc.
// Restore installs the segment into the store, which rebuilds the
// machine's DEFLATE stream by appending the segment's records; that
// stream is byte-identical to the original because Store.Append never
// flushes the compressor, so the byte-identical-store invariant survives
// kill/resume.
//
// Layout: magic, then little-endian length-prefixed sections
//
//	"FSFLEET3" | u32 len + header JSON | u32 snapCount
//	| per snapshot: u64 len + snapshot.Encode bytes
//	| u64 len + colstore segment (required; a machine with no records
//	  carries a zero-record segment)
//
// Files are written to <name>.ckpt.tmp and renamed into place, so a kill
// mid-write leaves no valid-looking partial checkpoint; loaders treat any
// malformed file (FSFLEET1 and FSFLEET2 files from earlier layouts
// included) as "not checkpointed" and re-run the machine.

const ckptMagic = "FSFLEET3"

type ckptHeader struct {
	Name        string            `json:"name"`
	Fingerprint string            `json:"fingerprint"`
	ProcNames   map[uint32]string `json:"proc_names,omitempty"`
}

type checkpoint struct {
	ckptHeader
	Snapshots []*snapshot.Snapshot
	Segment   []byte
}

func checkpointPath(dir, machine string) string {
	return filepath.Join(dir, collect.SafeName(machine)+".ckpt")
}

// writeCheckpoint persists a completed shard atomically.
func (e *Engine) writeCheckpoint(sh *shard) error {
	seg, err := e.store.Segment(sh.spec.Name)
	if errors.Is(err, collect.ErrNoRecords) {
		seg, _, err = colstore.EncodeSegment(nil, colstore.Options{})
	}
	if err != nil {
		return err
	}
	data, err := encodeCheckpoint(&checkpoint{
		ckptHeader: ckptHeader{Name: sh.spec.Name, Fingerprint: sh.spec.Fingerprint, ProcNames: sh.procNames},
		Snapshots:  sh.snaps,
		Segment:    seg,
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

// encodeCheckpoint lays ck out in the checkpoint format.
func encodeCheckpoint(ck *checkpoint) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(ckptMagic)
	head, err := json.Marshal(ck.ckptHeader)
	if err != nil {
		return nil, err
	}
	binary.Write(&buf, binary.LittleEndian, uint32(len(head)))
	buf.Write(head)
	binary.Write(&buf, binary.LittleEndian, uint32(len(ck.Snapshots)))
	for _, snap := range ck.Snapshots {
		data := snapshot.Encode(snap)
		binary.Write(&buf, binary.LittleEndian, uint64(len(data)))
		buf.Write(data)
	}
	binary.Write(&buf, binary.LittleEndian, uint64(len(ck.Segment)))
	buf.Write(ck.Segment)
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
	var snapCount uint32
	if err := binary.Read(r, binary.LittleEndian, &snapCount); err != nil {
		return nil, err
	}
	ck := &checkpoint{ckptHeader: h}
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
	var segLen uint64
	if err := binary.Read(r, binary.LittleEndian, &segLen); err != nil {
		return nil, fmt.Errorf("segment section: %w", err)
	}
	if segLen != uint64(r.Len()) {
		return nil, fmt.Errorf("segment section length %d != %d remaining bytes", segLen, r.Len())
	}
	seg := make([]byte, segLen)
	if _, err := io.ReadFull(r, seg); err != nil {
		return nil, err
	}
	// Validate now so restore never installs a corrupt segment envelope;
	// block payloads are CRC-checked as restore decodes them.
	if _, err := colstore.OpenSegment(seg, nil); err != nil {
		return nil, fmt.Errorf("segment section: %w", err)
	}
	ck.Segment = seg
	return ck, nil
}
