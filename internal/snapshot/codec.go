package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/sim"
)

// magic opens every encoded snapshot.
//
// Layout (integers are Go varints: u = unsigned, s = zig-zag signed):
//
//	"FSSNAP01"
//	| u len + machine | u len + volume | s TakenAt | u record count
//	| per record: flag byte | u depth | u len + name
//	|   then, in flag-bit order, one s value per set bit:
//	|   Size, Created, LastModified, LastAccessed, NumFiles, NumSubdirs
//	| SHA-256 of every byte above
//
// A flag bit is set exactly when its field is non-zero (flagDir carries
// IsDir and no value), so the encoding of a snapshot is unique and any
// input Decode accepts re-encodes to the same bytes.
const magic = "FSSNAP01"

// Record flag bits.
const (
	flagDir = 1 << iota
	flagSize
	flagCreated
	flagModified
	flagAccessed
	flagNumFiles
	flagNumSubdirs

	flagsKnown = flagNumSubdirs<<1 - 1
)

// minRecordBytes is the smallest encoded record: flag, depth, name length.
const minRecordBytes = 3

// ErrCorrupt is wrapped by every Decode error.
var ErrCorrupt = errors.New("snapshot: corrupt")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// Encode returns the binary form of s, in the layout described at magic.
func Encode(s *Snapshot) []byte {
	// Most records are a flag, a depth, a short name and a few times.
	buf := make([]byte, 0, len(magic)+len(s.Machine)+len(s.Volume)+32+len(s.Records)*40+sha256.Size)
	buf = append(buf, magic...)
	buf = appendString(buf, s.Machine)
	buf = appendString(buf, s.Volume)
	buf = binary.AppendVarint(buf, int64(s.TakenAt))
	buf = binary.AppendUvarint(buf, uint64(len(s.Records)))
	for i := range s.Records {
		r := &s.Records[i]
		vals := r.values()
		var flags byte
		if r.IsDir {
			flags = flagDir
		}
		for j, v := range vals {
			if v != 0 {
				flags |= flagSize << j
			}
		}
		buf = append(buf, flags)
		buf = binary.AppendUvarint(buf, uint64(r.Depth))
		buf = appendString(buf, r.Name)
		for _, v := range vals {
			if v != 0 {
				buf = binary.AppendVarint(buf, v)
			}
		}
	}
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// numValues counts the optional integer fields of a record.
const numValues = 6

// values lists r's optional fields in flag-bit order.
func (r *WalkRecord) values() [numValues]int64 {
	return [numValues]int64{r.Size, int64(r.Created), int64(r.LastModified), int64(r.LastAccessed),
		int64(r.NumFiles), int64(r.NumSubdirs)}
}

func (r *WalkRecord) setValues(v [numValues]int64) {
	r.Size, r.Created, r.LastModified, r.LastAccessed = v[0], sim.Time(v[1]), sim.Time(v[2]), sim.Time(v[3])
	r.NumFiles, r.NumSubdirs = int(v[4]), int(v[5])
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// Decode parses an encoded snapshot. It fails closed with an error
// wrapping ErrCorrupt on a bad magic or checksum, any length or count
// that overruns the input, a non-canonical varint, an unknown or
// inconsistent flag, a depth that does not describe a pre-order walk,
// or trailing bytes.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(magic)+sha256.Size || string(data[:len(magic)]) != magic {
		return nil, corruptf("bad magic")
	}
	body := data[:len(data)-sha256.Size]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], data[len(body):]) {
		return nil, corruptf("checksum mismatch")
	}
	d := decoder{buf: body[len(magic):]}
	s := &Snapshot{}
	s.Machine = d.string()
	s.Volume = d.string()
	s.TakenAt = sim.Time(d.varint())
	n := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	if n > uint64(len(d.buf))/minRecordBytes {
		return nil, corruptf("record count %d exceeds %d remaining bytes", n, len(d.buf))
	}
	if n > 0 {
		s.Records = make([]WalkRecord, n)
	}
	for i := range s.Records {
		r := &s.Records[i]
		flags := d.byte()
		depth := d.uvarint()
		if d.err != nil {
			return nil, d.err
		}
		if flags&^flagsKnown != 0 {
			return nil, corruptf("record %d: unknown flags %#x", i, flags)
		}
		r.IsDir = flags&flagDir != 0
		switch {
		case i == 0 && depth != 0:
			return nil, corruptf("record 0: depth %d, want 0", depth)
		case i > 0 && depth == 0:
			return nil, corruptf("record %d: second root", i)
		case i > 0 && depth > uint64(maxChildDepth(s.Records[i-1])):
			return nil, corruptf("record %d: depth %d skips a level", i, depth)
		}
		r.Depth = int(depth)
		r.Name = d.string()
		var vals [numValues]int64
		for j := range vals {
			if flags&(flagSize<<j) != 0 {
				vals[j] = d.nonZero(i)
			}
		}
		r.setValues(vals)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != 0 {
		return nil, corruptf("%d trailing bytes", len(d.buf))
	}
	return s, nil
}

// maxChildDepth is the deepest the record after r may sit: one below a
// directory, level with a file.
func maxChildDepth(r WalkRecord) int {
	if r.IsDir {
		return r.Depth + 1
	}
	return r.Depth
}

// decoder reads from buf, keeping the first error; once err is set every
// read returns zero.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.buf = nil
}

func (d *decoder) byte() byte {
	if len(d.buf) == 0 {
		d.fail(corruptf("truncated"))
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

// canonical reports whether the n-byte varint at the head of buf is the
// shortest encoding of its value: only a padded encoding ends in 0x00.
func (d *decoder) canonical(n int) bool { return n == 1 || d.buf[n-1] != 0 }

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 || !d.canonical(n) {
		d.fail(corruptf("bad varint"))
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.buf)
	if n <= 0 || !d.canonical(n) {
		d.fail(corruptf("bad varint"))
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// nonZero reads an optional field of record i, which the flags promise
// is present and therefore non-zero.
func (d *decoder) nonZero(i int) int64 {
	v := d.varint()
	if v == 0 && d.err == nil {
		d.fail(corruptf("record %d: flagged field is zero", i))
	}
	return v
}

func (d *decoder) string() string {
	n := d.uvarint()
	if n > uint64(len(d.buf)) {
		d.fail(corruptf("string length %d exceeds %d remaining bytes", n, len(d.buf)))
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}
