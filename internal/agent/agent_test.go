package agent

import (
	"net"
	"testing"

	"repro/internal/collect"
	"repro/internal/ntos/machine"
	"repro/internal/ntos/types"
	"repro/internal/ntos/volume"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/tracefmt"
)

// memSink captures agent output.
type memSink struct {
	buffers map[string][][]tracefmt.Record
	snaps   []*snapshot.Snapshot
}

func newMemSink() *memSink {
	return &memSink{buffers: map[string][][]tracefmt.Record{}}
}

func (m *memSink) TraceBuffer(mch string, recs []tracefmt.Record) {
	m.buffers[mch] = append(m.buffers[mch], recs)
}

func (m *memSink) Snapshot(s *snapshot.Snapshot) { m.snaps = append(m.snaps, s) }

func rig(t *testing.T) (*machine.Machine, *Agent, *memSink) {
	t.Helper()
	sink := newMemSink()
	sched := sim.NewScheduler()
	var a *Agent
	m := machine.New(sched, sim.NewRNG(5), machine.Config{
		Name: "node-1", Category: machine.Personal,
		TraceFlush: func(recs []tracefmt.Record) {
			if a != nil {
				a.Flush(recs)
			}
		},
	})
	m.AddVolume(`C:`, volume.IDE1998, volume.FlavorNTFS, false)
	m.Start()
	a = New(m, sink)
	return m, a, sink
}

func genTraffic(m *machine.Machine, files int) {
	pid := m.SpawnPID()
	for i := 0; i < files; i++ {
		h, _ := m.IO.CreateFile(pid, `C:\f.dat`, types.AccessWrite, types.DispositionOverwriteIf, 0, 0)
		m.IO.WriteFile(pid, h, 0, 4096)
		m.IO.CloseHandle(pid, h)
	}
}

func TestAgentForwardsBuffers(t *testing.T) {
	m, a, sink := rig(t)
	a.Start()
	genTraffic(m, 2000) // enough opens to fill trace buffers
	m.Sched.RunUntil(m.Sched.Now().Add(10 * sim.Second))
	m.Stop()
	m.Sched.RunUntil(m.Sched.Now().Add(sim.Second))
	if len(sink.buffers["node-1"]) == 0 {
		t.Fatal("no buffers forwarded")
	}
	if a.Stats.RecordsForwarded == 0 {
		t.Error("no records counted")
	}
}

func TestAgentSuspendsWhenDisconnected(t *testing.T) {
	m, a, sink := rig(t)
	a.Start()
	a.SetConnected(false)
	genTraffic(m, 2000)
	m.Stop()
	m.Sched.RunUntil(m.Sched.Now().Add(sim.Second))
	if len(sink.buffers["node-1"]) != 0 {
		t.Error("buffers delivered while disconnected")
	}
	if a.Stats.BuffersDropped == 0 {
		t.Error("dropped buffers not counted")
	}
	// Reconnect: traffic flows again.
	a.SetConnected(true)
	if !a.Connected() {
		t.Error("Connected() false after reconnect")
	}
	genTraffic(m, 2000)
	m.Sched.RunUntil(m.Sched.Now().Add(sim.Second))
	for _, v := range m.Volumes {
		v.Trace.Flush()
	}
	m.Sched.RunUntil(m.Sched.Now().Add(sim.Second))
	if len(sink.buffers["node-1"]) == 0 {
		t.Error("no buffers after reconnect")
	}
}

func TestDailySnapshotAtFourAM(t *testing.T) {
	m, a, sink := rig(t)
	m.SystemVolume().FS.CreateFile(`\seed.txt`, 100, types.AttrNormal, 0)
	a.Start()
	// Run past 4 a.m. of day one.
	m.Sched.RunUntil(sim.Time(5 * sim.Hour))
	if len(sink.snaps) != 1 {
		t.Fatalf("snapshots after 5h = %d, want 1", len(sink.snaps))
	}
	if got := sink.snaps[0].TakenAt; got < sim.Time(4*sim.Hour) || got > sim.Time(4*sim.Hour+sim.Hour) {
		t.Errorf("snapshot at %v, want ~4 a.m.", got)
	}
	// Second day.
	m.Sched.RunUntil(sim.Time(sim.Day + 5*sim.Hour))
	if len(sink.snaps) != 2 {
		t.Errorf("snapshots after day 2 = %d, want 2", len(sink.snaps))
	}
	a.Stop()
	m.Sched.RunUntil(sim.Time(3 * sim.Day))
	if len(sink.snaps) != 2 {
		t.Error("snapshots taken after Stop")
	}
}

func TestSnapshotWalkCostCharged(t *testing.T) {
	m, a, _ := rig(t)
	// Populate ~20k files so the walk cost is measurable (30–90 s per §3.1).
	fs := m.SystemVolume().FS
	fs.MkdirAll(`\bulk`, 0)
	for i := 0; i < 20000; i++ {
		fs.CreateFile(`\bulk\f`+itoa(i), 100, types.AttrNormal, 0)
	}
	a.TakeSnapshots()
	if a.Stats.LastWalk < 10*sim.Second || a.Stats.LastWalk > 120*sim.Second {
		t.Errorf("walk of 20k files took %v, want tens of seconds", a.Stats.LastWalk)
	}
}

func itoa(i int) string {
	var b [8]byte
	n := len(b)
	for i > 0 || n == len(b) {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

func TestRemoteVolumesNotSnapshotted(t *testing.T) {
	sink := newMemSink()
	sched := sim.NewScheduler()
	m := machine.New(sched, sim.NewRNG(6), machine.Config{Name: "n", Category: machine.Personal})
	m.AddVolume(`C:`, volume.IDE1998, volume.FlavorNTFS, false)
	m.AddVolume(`\\fs\u`, volume.Redirector100Mb, volume.FlavorCIFS, true)
	m.Start()
	a := New(m, sink)
	a.TakeSnapshots()
	if len(sink.snaps) != 1 {
		t.Fatalf("snapshots = %d, want 1 (local only)", len(sink.snaps))
	}
	if sink.snaps[0].Volume != `C:` {
		t.Errorf("snapshotted volume = %s", sink.snaps[0].Volume)
	}
}

func TestNetSinkEndToEnd(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	store := collect.NewStore(nil)
	srv := collect.Serve(ln, store, nil)

	m, a, _ := rig(t)
	sink, err := NewNetSink(srv.Addr(), m.Name)
	if err != nil {
		t.Fatal(err)
	}
	// Re-point the agent's deliveries at the network sink.
	a.sink = sink
	a.Start()
	genTraffic(m, 3000)
	m.Stop()
	m.Sched.RunUntil(m.Sched.Now().Add(sim.Second))
	a.TakeSnapshots()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for _, e := range srv.Errors() {
		t.Errorf("server error: %v", e)
	}
	if err := store.Finalize(); err != nil {
		t.Fatal(err)
	}
	recs, err := store.Records(m.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 3000 {
		t.Errorf("server stored %d records", len(recs))
	}
	if len(sink.Snaps) == 0 {
		t.Error("snapshots not retained by the sink")
	}
	if st := sink.Stats(); st.SendErrors != 0 {
		t.Errorf("send errors: %d", st.SendErrors)
	}
}
