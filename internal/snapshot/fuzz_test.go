package snapshot

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"

	"repro/internal/ntos/volume"
)

// FuzzSnapshotDecode feeds arbitrary bytes to Decode twice: as given,
// and with the last 32 bytes replaced by a valid checksum so mutations
// reach the record parser. Decode must never panic, must fail with
// ErrCorrupt, and anything it accepts must re-encode to the same bytes
// and resolve its paths.
func FuzzSnapshotDecode(f *testing.F) {
	walk := genSnapshot(f, 3, volume.FlavorNTFS)
	walk.Records = walk.Records[:200] // a pre-order prefix is still a walk
	f.Add(Encode(walk))
	f.Add(Encode(&Snapshot{}))
	for _, data := range corruptions(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		inputs := [][]byte{raw}
		if len(raw) >= sha256.Size {
			inputs = append(inputs, seal(raw[:len(raw)-sha256.Size]))
		}
		for _, in := range inputs {
			s, err := Decode(in)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("error does not wrap ErrCorrupt: %v", err)
				}
				continue
			}
			if !bytes.Equal(Encode(s), in) {
				t.Fatal("accepted input does not re-encode to the same bytes")
			}
			if es := s.Entries(); len(es) != len(s.Records) {
				t.Fatalf("%d entries for %d records", len(es), len(s.Records))
			}
		}
	})
}
