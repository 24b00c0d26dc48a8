package cachemgr

import (
	"container/list"
	"fmt"
	"testing"

	"repro/internal/ntos/fsys"
	"repro/internal/ntos/irp"
	"repro/internal/ntos/types"
	"repro/internal/ntos/volume"
	"repro/internal/sim"
)

// refManager is the reference model of the cache manager's paging
// behaviour: one unified LRU list of every resident page, eviction by a
// walk from its tail past dirty pages, and a lazy writer that collects
// and sorts a map's dirty page indexes. It is slow (each eviction costs
// the dirty tail) but plainly correct, and Manager must send exactly the
// paging requests it does.
type refManager struct {
	sched         *sim.Scheduler
	target        irp.Target
	capacityPages int
	resident      int
	maps          map[*fsys.Node]*refMap
	dirtyQ        []*refMap
	lru           *list.List // of *refPage; front = most recent
	Stats         Stats
}

type refMap struct {
	node          *fsys.Node
	pages         map[int64]*refPage
	dirty         int
	readAhead     int
	readAheadHigh int64
	pagingFO      *types.FileObject
	queued        bool
}

type refPage struct {
	cm    *refMap
	idx   int64
	dirty bool
	elem  *list.Element
}

func newRefManager(sched *sim.Scheduler, capacity int64, target irp.Target) *refManager {
	return &refManager{
		sched:         sched,
		target:        target,
		capacityPages: int(capacity / PageSize),
		maps:          map[*fsys.Node]*refMap{},
		lru:           list.New(),
	}
}

func (m *refManager) mapFor(node *fsys.Node) *refMap {
	cm := m.maps[node]
	if cm == nil {
		ra := DefaultReadAhead
		if node.Size > BoostedReadAhead {
			ra = BoostedReadAhead
		}
		cm = &refMap{node: node, pages: map[int64]*refPage{}, readAhead: ra}
		m.maps[node] = cm
	}
	return cm
}

func (m *refManager) addPage(cm *refMap, idx int64) *refPage {
	if p := cm.pages[idx]; p != nil {
		m.lru.MoveToFront(p.elem)
		return p
	}
	p := &refPage{cm: cm, idx: idx}
	p.elem = m.lru.PushFront(p)
	cm.pages[idx] = p
	m.resident++
	for m.resident > m.capacityPages {
		if !m.evictOne(p) {
			break
		}
	}
	return p
}

func (m *refManager) evictOne(exclude *refPage) bool {
	for e := m.lru.Back(); e != nil; e = e.Prev() {
		p := e.Value.(*refPage)
		if p.dirty || p == exclude {
			continue
		}
		m.lru.Remove(p.elem)
		delete(p.cm.pages, p.idx)
		m.resident--
		m.Stats.EvictedPages++
		return true
	}
	return false
}

func (m *refManager) pagingFile(cm *refMap) *types.FileObject {
	if cm.pagingFO == nil {
		cm.pagingFO = &types.FileObject{Path: cm.node.Path(), FsContext: cm.node}
	}
	cm.pagingFO.FileSize = cm.node.Size
	return cm.pagingFO
}

func (m *refManager) CopyRead(fo *types.FileObject, cm *refMap, offset int64, length int, procID uint32) {
	m.Stats.ReadRequests++
	m.Stats.BytesRead += uint64(length)
	first, last := pageRange(offset, length)
	missStart := int64(-1)
	hit := true
	for i := first; i <= last; i++ {
		if p := cm.pages[i]; p != nil {
			m.lru.MoveToFront(p.elem)
			if missStart >= 0 {
				m.pageIn(cm, missStart, i-1, procID, false)
				missStart = -1
			}
			continue
		}
		hit = false
		if missStart < 0 {
			missStart = i
		}
	}
	if missStart >= 0 {
		m.pageIn(cm, missStart, last, procID, false)
	}
	if hit {
		m.Stats.ReadsFromCache++
		m.Stats.BytesFromCache += uint64(length)
	}
	m.noteSequential(fo, cm, offset, length, procID)
}

func (m *refManager) noteSequential(fo *types.FileObject, cm *refMap, offset int64, length int, procID uint32) {
	const fuzz = int64(127)
	seq := (offset &^ fuzz) <= ((fo.LastSequentialEnd + fuzz) &^ fuzz)
	if seq && offset >= fo.LastSequentialEnd-fuzz {
		fo.SequentialStreak++
	} else {
		fo.SequentialStreak = 1
	}
	end := offset + int64(length)
	if end > fo.LastSequentialEnd {
		fo.LastSequentialEnd = end
	}
	g := int64(cm.readAhead)
	var raStart int64
	switch {
	case cm.readAheadHigh == 0:
		raStart = offset
	case fo.SequentialStreak >= 3 && end+g > cm.readAheadHigh:
		raStart = cm.readAheadHigh
	default:
		return
	}
	raEnd := min(raStart+g, cm.node.Size)
	if raEnd <= raStart {
		return
	}
	cm.readAheadHigh = raEnd
	m.sched.After(sim.FromMicroseconds(50), func(*sim.Scheduler) {
		if cm.node.Orphaned() || m.maps[cm.node] != cm {
			return
		}
		first, last := pageRange(raStart, int(raEnd-raStart))
		runStart := int64(-1)
		for i := first; i <= last; i++ {
			if cm.pages[i] != nil {
				if runStart >= 0 {
					m.pageIn(cm, runStart, i-1, procID, true)
					runStart = -1
				}
				continue
			}
			if runStart < 0 {
				runStart = i
			}
		}
		if runStart >= 0 {
			m.pageIn(cm, runStart, last, procID, true)
		}
	})
}

func (m *refManager) pageIn(cm *refMap, first, last int64, procID uint32, readAhead bool) {
	length := int((last - first + 1) * PageSize)
	m.target.Call(&irp.Request{
		Major:      types.IrpMjRead,
		Flags:      types.IrpPaging | types.IrpNoCache,
		FileObject: m.pagingFile(cm),
		ProcessID:  procID,
		Offset:     first * PageSize,
		Length:     length,
		ReadAhead:  readAhead,
	})
	if readAhead {
		m.Stats.ReadAheadOps++
		m.Stats.ReadAheadBytes += uint64(length)
	}
	for i := first; i <= last; i++ {
		m.addPage(cm, i)
	}
}

func (m *refManager) CopyWrite(cm *refMap, offset int64, length int) {
	m.Stats.WriteRequests++
	m.Stats.BytesWritten += uint64(length)
	first, last := pageRange(offset, length)
	for i := first; i <= last; i++ {
		p := m.addPage(cm, i)
		if !p.dirty {
			p.dirty = true
			cm.dirty++
		}
	}
	if !cm.queued {
		cm.queued = true
		m.dirtyQ = append(m.dirtyQ, cm)
	}
}

func (m *refManager) FlushFile(node *fsys.Node, procID uint32) int {
	cm := m.maps[node]
	if cm == nil || cm.dirty == 0 {
		return 0
	}
	m.Stats.FlushOps++
	return m.writeDirty(cm, cm.dirty, procID, false)
}

func (m *refManager) writeDirty(cm *refMap, maxPages int, procID uint32, lazy bool) int {
	if maxPages <= 0 {
		return 0
	}
	const maxRunPages = BoostedReadAhead / PageSize
	idxs := make([]int64, 0, cm.dirty)
	for i, p := range cm.pages {
		if p.dirty {
			idxs = append(idxs, i)
		}
	}
	// Insertion sort: the reference favours plainness over speed.
	for i := 1; i < len(idxs); i++ {
		for j := i; j > 0 && idxs[j-1] > idxs[j]; j-- {
			idxs[j-1], idxs[j] = idxs[j], idxs[j-1]
		}
	}
	written := 0
	for start := 0; start < len(idxs) && written < maxPages; {
		end := start
		for end+1 < len(idxs) && idxs[end+1] == idxs[end]+1 &&
			end-start+1 < maxRunPages && written+(end-start+1) < maxPages {
			end++
		}
		first, last := idxs[start], idxs[end]
		m.target.Call(&irp.Request{
			Major:      types.IrpMjWrite,
			Flags:      types.IrpPaging | types.IrpNoCache,
			FileObject: m.pagingFile(cm),
			ProcessID:  procID,
			Offset:     first * PageSize,
			Length:     int((last - first + 1) * PageSize),
			LazyWrite:  lazy,
		})
		if lazy {
			m.Stats.LazyWriteOps++
		}
		for i := first; i <= last; i++ {
			if p := cm.pages[i]; p != nil && p.dirty {
				p.dirty = false
				cm.dirty--
				written++
			}
		}
		m.Stats.LazyWritePages += uint64(last - first + 1)
		start = end + 1
	}
	return written
}

func (m *refManager) lazyWriteScan() {
	queue := m.dirtyQ
	m.dirtyQ = m.dirtyQ[:0]
	for _, cm := range queue {
		if cm.dirty > 0 {
			target := cm.dirty / 8
			if target < 2 {
				target = cm.dirty
			}
			target = min(target, 8*(BoostedReadAhead/PageSize))
			m.Stats.LazyWriteBursts++
			m.writeDirty(cm, target, 0, true)
		}
		if cm.dirty > 0 {
			m.dirtyQ = append(m.dirtyQ, cm)
		} else {
			cm.queued = false
		}
	}
}

func (m *refManager) Purge(node *fsys.Node) int {
	cm := m.maps[node]
	if cm == nil {
		return 0
	}
	m.Stats.PurgeOps++
	dirty := cm.dirty
	for _, p := range cm.pages {
		m.lru.Remove(p.elem)
		m.resident--
	}
	if dirty > 0 {
		m.Stats.PurgedDirty++
	}
	cm.pages = map[int64]*refPage{}
	cm.dirty = 0
	cm.readAheadHigh = 0
	return dirty
}

func (m *refManager) DropMap(node *fsys.Node) {
	if m.maps[node] == nil {
		return
	}
	m.Purge(node)
	delete(m.maps, node)
}

// pagingReq is the part of a paging request the two managers must agree on.
type pagingReq struct {
	major     types.MajorFunction
	offset    int64
	length    int
	readAhead bool
	lazyWrite bool
}

func (r pagingReq) String() string {
	return fmt.Sprintf("{major %v off %d len %d ra %v lazy %v}", r.major, r.offset, r.length, r.readAhead, r.lazyWrite)
}

// diffSide is one manager's world: its own scheduler, volume and file
// objects, so read-ahead state and virtual time never leak between them.
type diffSide struct {
	sched  *sim.Scheduler
	fs     *fsys.FS
	nodes  []*fsys.Node
	fos    []*types.FileObject
	paging []pagingReq
}

func newDiffSide(files int, size int64) *diffSide {
	s := &diffSide{sched: sim.NewScheduler(), fs: fsys.New(volume.FlavorNTFS, 1<<30)}
	for i := 0; i < files; i++ {
		node, _ := s.fs.CreateFile(fmt.Sprintf(`\f%d`, i), size, types.AttrNormal, 0)
		s.nodes = append(s.nodes, node)
		s.fos = append(s.fos, nil)
	}
	return s
}

func (s *diffSide) record(rq *irp.Request) {
	s.paging = append(s.paging, pagingReq{rq.Major, rq.Offset, rq.Length, rq.ReadAhead, rq.LazyWrite})
	rq.Status = types.StatusSuccess
	rq.Information = int64(rq.Length)
}

// TestEvictionMatchesUnifiedLRU drives Manager and the unified-LRU
// reference with the same seeded traffic at a small capacity — reads
// (sequential runs among them, so read-ahead fires), writes large enough
// that dirty pages outgrow the cache, flushes, lazy-writer scans, purges
// and map drops — and requires, after every operation, the same paging
// requests at the target and the same Stats.
func TestEvictionMatchesUnifiedLRU(t *testing.T) {
	const (
		files    = 4
		fileSize = 1 << 20
		capacity = 24 * PageSize
		ops      = 3000
	)
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRNG(seed)
		got, want := newDiffSide(files, fileSize), newDiffSide(files, fileSize)
		m := New(got.sched, Config{CapacityBytes: capacity})
		m.Wire(irp.TargetFunc(got.record), nil)
		ref := newRefManager(want.sched, capacity, irp.TargetFunc(want.record))
		var next [files]int64 // per-file end of the last transfer
		id := types.FileObjectID(0)
		for op := 0; op < ops; op++ {
			f := rng.Intn(files)
			if got.fos[f] == nil {
				id++
				for _, s := range []*diffSide{got, want} {
					s.fos[f] = &types.FileObject{ID: id, RefCount: 1, FsContext: s.nodes[f], FileSize: fileSize}
				}
				m.InitializeCacheMap(got.fos[f], got.nodes[f])
				ref.mapFor(want.nodes[f])
			}
			off := rng.Int63n(fileSize)
			if rng.Bool(0.4) {
				off = next[f] % fileSize
			}
			n := 1 + rng.Intn(64*1024)
			n = int(min(int64(n), fileSize-off))
			next[f] = off + int64(n)
			var desc string
			switch k := rng.Intn(20); {
			case k < 8:
				desc = fmt.Sprintf("read f%d [%d,+%d)", f, off, n)
				m.CopyRead(got.fos[f], got.fos[f].CacheMap.(*SharedCacheMap), off, n, 1)
				ref.CopyRead(want.fos[f], ref.mapFor(want.nodes[f]), off, n, 1)
			case k < 15:
				desc = fmt.Sprintf("write f%d [%d,+%d)", f, off, n)
				m.CopyWrite(got.fos[f], got.fos[f].CacheMap.(*SharedCacheMap), off, n)
				ref.CopyWrite(ref.mapFor(want.nodes[f]), off, n)
			case k < 16:
				desc = fmt.Sprintf("flush f%d", f)
				if a, b := m.FlushFile(got.nodes[f], 1), ref.FlushFile(want.nodes[f], 1); a != b {
					t.Fatalf("seed %d op %d %s: flushed %d pages, reference %d", seed, op, desc, a, b)
				}
			case k < 18:
				desc = "lazy-writer scan"
				m.lazyWriteScan()
				ref.lazyWriteScan()
			case k < 19:
				desc = fmt.Sprintf("purge f%d", f)
				if a, b := m.Purge(got.nodes[f]), ref.Purge(want.nodes[f]); a != b {
					t.Fatalf("seed %d op %d %s: purged %d dirty, reference %d", seed, op, desc, a, b)
				}
			default:
				desc = fmt.Sprintf("drop map f%d", f)
				m.DropMap(got.nodes[f])
				ref.DropMap(want.nodes[f])
				got.fos[f], want.fos[f] = nil, nil
			}
			// Run the read-ahead each side scheduled.
			got.sched.RunUntil(got.sched.Now().Add(sim.Millisecond))
			want.sched.RunUntil(want.sched.Now().Add(sim.Millisecond))

			if len(got.paging) != len(want.paging) {
				t.Fatalf("seed %d op %d %s: %d paging requests, reference %d\n got  %v\n want %v",
					seed, op, desc, len(got.paging), len(want.paging), got.paging, want.paging)
			}
			for i := range got.paging {
				if got.paging[i] != want.paging[i] {
					t.Fatalf("seed %d op %d %s: paging request %d = %v, reference %v",
						seed, op, desc, i, got.paging[i], want.paging[i])
				}
			}
			got.paging, want.paging = got.paging[:0], want.paging[:0]
			if m.Stats != ref.Stats {
				t.Fatalf("seed %d op %d %s: stats\n got  %+v\n want %+v", seed, op, desc, m.Stats, ref.Stats)
			}
			if m.ResidentPages() != ref.resident {
				t.Fatalf("seed %d op %d %s: %d resident pages, reference %d", seed, op, desc, m.ResidentPages(), ref.resident)
			}
		}
		if m.Stats.EvictedPages == 0 || m.Stats.LazyWriteOps == 0 || m.Stats.ReadAheadOps == 0 {
			t.Fatalf("seed %d: traffic too tame to compare: %+v", seed, m.Stats)
		}
	}
}
