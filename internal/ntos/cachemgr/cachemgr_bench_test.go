package cachemgr

import (
	"testing"

	"repro/internal/ntos/fsys"
	"repro/internal/ntos/irp"
	"repro/internal/ntos/types"
	"repro/internal/ntos/volume"
	"repro/internal/sim"
)

// Burst sizing shared by the micro-benchmarks: one inline burst of 64 KB
// cached writes, 56 MB in all, into the default 16 MB cache — the
// mail-compaction pattern whose dirty pages outgrow the cache.
const (
	benchBurstBytes = 56 << 20
	benchWriteBytes = 64 << 10
)

// newBenchBurst returns a Manager with a discarding paging target and one
// cached, empty file to write into.
func newBenchBurst(b *testing.B) (*Manager, *fsys.Node, *types.FileObject, *SharedCacheMap) {
	b.Helper()
	m := New(sim.NewScheduler(), Config{})
	m.Wire(irp.TargetFunc(func(rq *irp.Request) {
		rq.Status = types.StatusSuccess
		rq.Information = int64(rq.Length)
	}), nil)
	fs := fsys.New(volume.FlavorNTFS, 1<<30)
	node, st := fs.CreateFile(`\mail.tmp`, 0, types.AttrNormal, 0)
	if st.IsError() {
		b.Fatal(st)
	}
	fo := &types.FileObject{ID: 1, RefCount: 1, FsContext: node}
	return m, node, fo, m.InitializeCacheMap(fo, node)
}

func burst(m *Manager, fo *types.FileObject, cm *SharedCacheMap) {
	for off := int64(0); off < benchBurstBytes; off += benchWriteBytes {
		m.CopyWrite(fo, cm, off, benchWriteBytes)
	}
}

// BenchmarkCacheDirtyTail measures the page faults of a burst whose dirty
// pages outgrow the cache: past the first 16 MB every new page finds no
// clean page to evict, a search that must not cost the dirty tail.
func BenchmarkCacheDirtyTail(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, node, fo, cm := newBenchBurst(b)
		burst(m, fo, cm)
		if got := m.Purge(node); got != benchBurstBytes/PageSize {
			b.Fatalf("purged %d dirty pages, want %d", got, benchBurstBytes/PageSize)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(benchBurstBytes/PageSize), "ns/page")
}

// BenchmarkLazyWriteScan measures the lazy writer draining the dirty
// pages one such burst left behind: each scan writes a burst of up to 128
// pages from the front of the file, so a scan must not cost the pages it
// leaves dirty.
func BenchmarkLazyWriteScan(b *testing.B) {
	scans := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, node, fo, cm := newBenchBurst(b)
		burst(m, fo, cm)
		b.StartTimer()
		for m.DirtyPages(node) > 0 {
			m.lazyWriteScan()
			scans++
		}
		if m.Stats.LazyWritePages != benchBurstBytes/PageSize {
			b.Fatalf("lazy writer wrote %d pages, want %d", m.Stats.LazyWritePages, benchBurstBytes/PageSize)
		}
	}
	b.ReportMetric(float64(scans)/float64(b.N), "scans/op")
}
