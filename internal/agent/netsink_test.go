package agent

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/collect"
	"repro/internal/ntos/types"
	"repro/internal/sim"
	"repro/internal/tracefmt"
)

func nsRecs(n int, fid uint64) []tracefmt.Record {
	recs := make([]tracefmt.Record, n)
	for i := range recs {
		recs[i] = tracefmt.Record{
			Kind:   tracefmt.EvRead,
			FileID: types.FileObjectID(fid),
			Proc:   uint32(i),
			Start:  sim.Time(i * 10),
			End:    sim.Time(i*10 + 5),
		}
	}
	return recs
}

func startCollect(t *testing.T) (*collect.Server, *collect.Store) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	store := collect.NewStore()
	return collect.Serve(ln, store, nil), store
}

// TestCollectFaultsNetSinkRecovers drives a sink through a deterministic
// schedule of dial refusals and mid-stream connection cuts and requires a
// lossless, byte-identical outcome: every record acked, the server-side
// stream equal to one built by appending the same buffers directly.
func TestCollectFaultsNetSinkRecovers(t *testing.T) {
	srv, store := startCollect(t)
	inj := collect.RandomFaults(sim.NewRNG(7), 20, 2, 2_000, 64_000)

	sink, err := NewNetSinkConfig(srv.Addr(), "faulty-node", NetSinkConfig{
		SpillSlots:   256,
		BaseBackoff:  time.Millisecond,
		MaxBackoff:   20 * time.Millisecond,
		DrainTimeout: 30 * time.Second,
		Dial:         inj.Dial,
	})
	if err != nil {
		t.Fatal(err)
	}

	baseline := collect.NewStore()
	const buffers, per = 200, 50
	for i := 0; i < buffers; i++ {
		recs := nsRecs(per, uint64(i+1))
		sink.TraceBuffer("faulty-node", recs)
		baseline.Append("faulty-node", recs)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	srv.Close()
	if err := store.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := baseline.Finalize(); err != nil {
		t.Fatal(err)
	}

	st := sink.Stats()
	if st.Lost != 0 {
		t.Fatalf("lost %d records with a roomy spill ring", st.Lost)
	}
	if st.Shipped != buffers*per {
		t.Fatalf("shipped %d records, want %d", st.Shipped, buffers*per)
	}
	if st.Reconnects == 0 {
		t.Error("no reconnects — the fault schedule never fired")
	}
	if _, _, cuts := inj.Counts(); cuts == 0 {
		t.Error("no connections cut — the fault schedule never fired")
	}
	want, err := baseline.StreamSum("faulty-node")
	if err != nil {
		t.Fatal(err)
	}
	got, err := store.StreamSum("faulty-node")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("server stream differs from fault-free baseline (count %d vs %d)",
			store.RecordCount("faulty-node"), baseline.RecordCount("faulty-node"))
	}
}

// TestCollectFaultsNetSinkOverflowCounted starves the sink of a server
// until its tiny spill ring overflows, then lets it reconnect: the drop
// count must be exact and the survivors must land, in order.
func TestCollectFaultsNetSinkOverflowCounted(t *testing.T) {
	srv, store := startCollect(t)

	var allow atomic.Bool
	sink, err := NewNetSinkConfig(srv.Addr(), "starved-node", NetSinkConfig{
		SpillSlots:   4,
		BaseBackoff:  time.Millisecond,
		MaxBackoff:   5 * time.Millisecond,
		DrainTimeout: 10 * time.Second,
		Dial: func(addr string) (net.Conn, error) {
			if !allow.Load() {
				return nil, errors.New("server down")
			}
			return net.Dial("tcp", addr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	const buffers, per = 20, 10
	for i := 0; i < buffers; i++ {
		sink.TraceBuffer("starved-node", nsRecs(per, uint64(i+1)))
	}
	allow.Store(true)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := store.Finalize(); err != nil {
		t.Fatal(err)
	}

	st := sink.Stats()
	// Ring holds the first 4 buffers; the other 16 overflow.
	if want := uint64((buffers - 4) * per); st.Lost != want {
		t.Errorf("lost = %d records, want exactly %d", st.Lost, want)
	}
	if want := uint64(4 * per); st.Shipped != want {
		t.Errorf("shipped = %d records, want %d", st.Shipped, want)
	}
	if st.Shipped+st.Lost != buffers*per {
		t.Errorf("shipped+lost = %d, want %d — silent loss", st.Shipped+st.Lost, buffers*per)
	}
	if got := store.RecordCount("starved-node"); uint64(got) != st.Shipped {
		t.Errorf("server stored %d, sink claims %d shipped", got, st.Shipped)
	}
	recs, err := store.Records("starved-node")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if recs[i*per].FileID != types.FileObjectID(i+1) {
			t.Fatalf("buffer %d out of order (FileID %d)", i, recs[i*per].FileID)
		}
	}
}

// TestCollectFaultsNetSinkLazyStart: without Eager, an unreachable server
// at construction is not an error — the sink spills and connects when the
// server appears.
func TestCollectFaultsNetSinkLazyStart(t *testing.T) {
	srv, store := startCollect(t)

	var fails atomic.Int32
	fails.Store(5)
	sink, err := NewNetSinkConfig(srv.Addr(), "late-node", NetSinkConfig{
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
		Dial: func(addr string) (net.Conn, error) {
			if fails.Add(-1) >= 0 {
				return nil, errors.New("not yet")
			}
			return net.Dial("tcp", addr)
		},
	})
	if err != nil {
		t.Fatalf("lazy construction failed: %v", err)
	}
	sink.TraceBuffer("late-node", nsRecs(30, 1))
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := store.Finalize(); err != nil {
		t.Fatal(err)
	}
	if st := sink.Stats(); st.Lost != 0 || st.Shipped != 30 {
		t.Errorf("stats = %+v, want 30 shipped, 0 lost", st)
	}
	if got := store.RecordCount("late-node"); got != 30 {
		t.Errorf("server stored %d records, want 30", got)
	}

	// Eager construction against the same dead dialer must fail.
	if _, err := NewNetSinkConfig("127.0.0.1:1", "x", NetSinkConfig{
		Eager: true,
		Dial:  func(string) (net.Conn, error) { return nil, errors.New("down") },
	}); err == nil {
		t.Error("Eager construction succeeded with a dead dialer")
	}
}

// TestNetSinkClosePromptOnDrain pins the event-driven drain wait: Close
// called while the server is unreachable must return as soon as the
// reconnect loop drains the ring — nowhere near the (deliberately huge)
// DrainTimeout — with every record accounted as shipped.
func TestNetSinkClosePromptOnDrain(t *testing.T) {
	srv, store := startCollect(t)
	var allow atomic.Bool
	sink, err := NewNetSinkConfig(srv.Addr(), "drain-node", NetSinkConfig{
		SpillSlots:   16,
		BaseBackoff:  time.Millisecond,
		MaxBackoff:   5 * time.Millisecond,
		DrainTimeout: 60 * time.Second,
		Dial: func(addr string) (net.Conn, error) {
			if !allow.Load() {
				return nil, errors.New("injected: refused")
			}
			return net.Dial("tcp", addr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sink.TraceBuffer("drain-node", nsRecs(40, 1))
	sink.TraceBuffer("drain-node", nsRecs(60, 2))
	if sink.Connected() {
		t.Fatal("sink connected through a refused dial")
	}

	closed := make(chan error, 1)
	start := time.Now()
	go func() { closed <- sink.Close() }()
	// Let Close park on the drain condition, then open the path.
	time.Sleep(20 * time.Millisecond)
	allow.Store(true)
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the ring drained")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Close took %v, want prompt return well under the 60s DrainTimeout", elapsed)
	}
	st := sink.Stats()
	if st.Shipped != 100 || st.Lost != 0 {
		t.Errorf("stats = %+v, want 100 shipped, 0 lost", st)
	}
	srv.Close()
	if err := store.Finalize(); err != nil {
		t.Fatal(err)
	}
	if n := store.RecordCount("drain-node"); n != 100 {
		t.Errorf("server stored %d records, want 100", n)
	}
}

// TestNetSinkCloseDeadlineStalledReconnect pins the other half of the
// drain contract: with the server permanently unreachable, Close returns
// at DrainTimeout (not hung on the condition variable) and counts the
// undelivered ring as lost.
func TestNetSinkCloseDeadlineStalledReconnect(t *testing.T) {
	sink, err := NewNetSinkConfig("127.0.0.1:1", "stalled-node", NetSinkConfig{
		SpillSlots:   8,
		BaseBackoff:  time.Millisecond,
		MaxBackoff:   5 * time.Millisecond,
		DrainTimeout: 100 * time.Millisecond,
		Dial:         func(string) (net.Conn, error) { return nil, errors.New("injected: down") },
	})
	if err != nil {
		t.Fatal(err)
	}
	sink.TraceBuffer("stalled-node", nsRecs(30, 1))
	start := time.Now()
	sink.Close()
	elapsed := time.Since(start)
	if elapsed < 100*time.Millisecond {
		t.Errorf("Close returned after %v, before the 100ms DrainTimeout", elapsed)
	}
	if elapsed > 5*time.Second {
		t.Errorf("Close took %v, want return at the 100ms DrainTimeout", elapsed)
	}
	if st := sink.Stats(); st.Shipped != 0 || st.Lost != 30 {
		t.Errorf("stats = %+v, want 0 shipped, 30 lost", st)
	}
}

// TestNetSinkCloseIdempotent pins the double-Close / send-after-Close
// contract: the second Close is a prompt nil no-op (no re-wait, no
// double-counted Lost), and buffers handed to a closed sink are counted
// lost exactly once without panicking.
func TestNetSinkCloseIdempotent(t *testing.T) {
	srv, store := startCollect(t)
	sink, err := NewNetSink(srv.Addr(), "idem-node")
	if err != nil {
		t.Fatal(err)
	}
	sink.TraceBuffer("idem-node", nsRecs(25, 1))
	if err := sink.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	first := sink.Stats()
	if first.Shipped != 25 || first.Lost != 0 {
		t.Fatalf("stats after first Close = %+v", first)
	}

	start := time.Now()
	if err := sink.Close(); err != nil {
		t.Errorf("second Close: %v, want nil", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("second Close took %v, want immediate return", elapsed)
	}
	if again := sink.Stats(); again != first {
		t.Errorf("second Close changed stats: %+v -> %+v", first, again)
	}

	sink.TraceBuffer("idem-node", nsRecs(7, 2))
	if st := sink.Stats(); st.Lost != 7 || st.Shipped != 25 {
		t.Errorf("send after Close: stats = %+v, want 7 lost, 25 shipped", st)
	}
	srv.Close()
	if err := store.Finalize(); err != nil {
		t.Fatal(err)
	}
	if n := store.RecordCount("idem-node"); n != 25 {
		t.Errorf("server stored %d records, want 25", n)
	}
}
