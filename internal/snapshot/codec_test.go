package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"repro/internal/fsgen"
	"repro/internal/ntos/fsys"
	"repro/internal/ntos/machine"
	"repro/internal/ntos/volume"
	"repro/internal/sim"
)

// genSnapshot takes a snapshot of a generated local system volume of
// the size a study machine carries (tens of thousands of records).
func genSnapshot(tb testing.TB, seed uint64, flavor volume.Flavor) *Snapshot {
	tb.Helper()
	fs := fsys.New(flavor, 4<<30)
	fsgen.PopulateLocal(fs, sim.NewRNG(seed), fsgen.Config{User: "alice", Category: machine.Pool, Now: sim.Time(30 * sim.Day)})
	return Take("pool-01", `C:`, fs, sim.Time(30*sim.Day+4*sim.Hour))
}

// seal appends a valid trailer to body.
func seal(body []byte) []byte {
	sum := sha256.Sum256(body)
	return append(append([]byte(nil), body...), sum[:]...)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, snap := range []*Snapshot{
		Take("m1", `C:`, buildFS(t), 100),
		genSnapshot(t, 7, volume.FlavorNTFS),
		genSnapshot(t, 8, volume.FlavorFAT),
		{Machine: "empty", Volume: `D:`, TakenAt: -5},
	} {
		data := Encode(snap)
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", snap.Machine, err)
		}
		if !reflect.DeepEqual(got, snap) {
			t.Fatalf("%s: decoded snapshot differs from the original", snap.Machine)
		}
		if again := Encode(got); string(again) != string(data) {
			t.Fatalf("%s: re-encoding changed the bytes", snap.Machine)
		}
	}
}

// corruptions returns named invalid encodings derived from a valid one;
// all but the first two carry a correct checksum, so they exercise the
// structural checks.
func corruptions(t testing.TB) map[string][]byte {
	t.Helper()
	valid := Encode(Take("m1", `C:`, buildFS(t), 100))
	flipped := append([]byte(nil), valid...)
	flipped[len(magic)+3] ^= 0x01
	header := func(count uint64) []byte {
		b := []byte(magic)
		b = appendString(b, "m")
		b = appendString(b, `C:`)
		b = binary.AppendVarint(b, 0)
		return binary.AppendUvarint(b, count)
	}
	rec := func(b []byte, flags byte, depth uint64, name string, vals ...int64) []byte {
		b = append(b, flags)
		b = binary.AppendUvarint(b, depth)
		b = appendString(b, name)
		for _, v := range vals {
			b = binary.AppendVarint(b, v)
		}
		return b
	}
	root := func(count uint64) []byte { return rec(header(count), flagDir, 0, "") }
	return map[string][]byte{
		"bad checksum":      flipped,
		"bad magic":         append([]byte("FSSNAP00"), valid[len(magic):]...),
		"trailing bytes":    seal(append(root(1), 0)),
		"depth skips level": seal(rec(root(2), 0, 2, "a")),
		"below a file":      seal(rec(rec(root(3), 0, 1, "f"), 0, 2, "g")),
		"second root":       seal(rec(root(2), flagDir, 0, "r")),
		"nonzero root":      seal(rec(header(1), flagDir, 1, "")),
		"unknown flag":      seal(rec(header(1), 0x80|flagDir, 0, "")),
		"flagged zero":      seal(rec(header(1), flagDir|flagSize, 0, "", 0)),
		"count overrun":     seal(header(1 << 40)),
		"name overrun":      seal(append(append(header(1), flagDir, 0), 0x7f)),
		"padded varint":     seal(append(append(header(1), flagDir, 0x80, 0x00), 0)),
		"truncated record":  seal(append(root(2), 0)),
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	for name, data := range corruptions(t) {
		if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode error = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, in := range [][]byte{nil, []byte("not a snapshot"), []byte(`{"machine":"m"}`), []byte(magic)} {
		if _, err := Decode(in); !errors.Is(err, ErrCorrupt) {
			t.Errorf("Decode(%q) error = %v, want ErrCorrupt", in, err)
		}
	}
}
