package snapshot

import (
	"testing"

	"repro/internal/ntos/volume"
)

// BenchmarkSnapshotCodec encodes and decodes one study-sized snapshot (a
// generated pool machine's system volume). MB/s is over the encoded
// bytes; records/op is the walk's length.
func BenchmarkSnapshotCodec(b *testing.B) {
	snap := genSnapshot(b, 1, volume.FlavorNTFS)
	data := Encode(snap)
	report := func(b *testing.B) {
		b.ReportMetric(float64(len(snap.Records)), "records/op")
		b.ReportMetric(float64(len(data))/float64(len(snap.Records)), "bytes/record")
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if n := len(Encode(snap)); n != len(data) {
				b.Fatalf("encoded %d bytes, want %d", n, len(data))
			}
		}
		report(b)
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := Decode(data)
			if err != nil {
				b.Fatal(err)
			}
			if len(got.Records) != len(snap.Records) {
				b.Fatalf("decoded %d records, want %d", len(got.Records), len(snap.Records))
			}
		}
		report(b)
	})
}
