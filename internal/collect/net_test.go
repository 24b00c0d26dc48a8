package collect

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/tracefmt"
)

func startServer(t *testing.T) (*Server, *Store) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(nil)
	return Serve(ln, store, nil), store
}

// rawHandshake opens a bare TCP connection, performs the v2 handshake by
// hand and consumes the server's ack, returning the connection for the
// test to corrupt at will.
func rawHandshake(t *testing.T, addr, machine string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write(magic)
	binary.Write(conn, binary.LittleEndian, uint32(len(machine)))
	conn.Write([]byte(machine))
	var ack [ackSize]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		t.Fatalf("handshake ack: %v", err)
	}
	return conn
}

func TestCollectFaultsTruncationRecorded(t *testing.T) {
	srv, store := startServer(t)

	// Pre-handshake death: dial and hang up. Not an error — the paper's
	// agents probe connectivity like this.
	probe, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	probe.Close()

	// Mid-stream truncation: handshake, half a frame, hang up.
	conn := rawHandshake(t, srv.Addr(), "trunc-node")
	binary.Write(conn, binary.LittleEndian, uint32(5)) // promises 5 records
	binary.Write(conn, binary.LittleEndian, uint64(1))
	conn.Write(make([]byte, tracefmt.RecordSize/2)) // ...delivers half of one
	conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for len(srv.Truncations()) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	srv.Close()

	truncs := srv.Truncations()
	if len(truncs) != 1 {
		t.Fatalf("truncations = %d (%v), want 1", len(truncs), srv.Errors())
	}
	tr := truncs[0]
	if tr.Machine != "trunc-node" {
		t.Errorf("truncation machine = %q", tr.Machine)
	}
	if tr.Frames != 0 {
		t.Errorf("truncation frames = %d, want 0 (frame never completed)", tr.Frames)
	}
	if tr.Err == nil {
		t.Error("truncation cause missing")
	}
	// The early-EOF probe must not be in Errors().
	if got := len(srv.Errors()); got != 1 {
		t.Errorf("errors = %d (%v), want only the truncation", got, srv.Errors())
	}
	if store.TotalRecords() != 0 {
		t.Errorf("partial frame stored %d records", store.TotalRecords())
	}
}

func TestCollectFaultsDuplicateFramesDropped(t *testing.T) {
	srv, store := startServer(t)

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c1, err := DialConn(conn, "dup-node")
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.SendSeq(1, mkRecs(100, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c1.SendSeq(2, mkRecs(200, 2)); err != nil {
		t.Fatal(err)
	}
	conn.Close() // abrupt death — no end frame

	c2, err := Dial(srv.Addr(), "dup-node")
	if err != nil {
		t.Fatal(err)
	}
	// The handshake ack reports the resume point across connections.
	if got := c2.LastAcked(); got != 2 {
		t.Fatalf("LastAcked after reconnect = %d, want 2", got)
	}
	// Resend frames 1 and 2 anyway: the server must drop them.
	if err := c2.SendSeq(1, mkRecs(100, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c2.SendSeq(2, mkRecs(200, 2)); err != nil {
		t.Fatal(err)
	}
	if err := c2.SendSeq(3, mkRecs(50, 3)); err != nil {
		t.Fatal(err)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := store.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := store.RecordCount("dup-node"); got != 350 {
		t.Errorf("records = %d, want 350 (duplicates must not double-store)", got)
	}
	recs, err := store.Records("dup-node")
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].FileID != 1 || recs[100].FileID != 2 || recs[300].FileID != 3 {
		t.Error("stream order lost across reconnect")
	}
}

func TestCollectFaultsOversizedFrameRejected(t *testing.T) {
	srv, store := startServer(t)
	conn := rawHandshake(t, srv.Addr(), "big-node")
	binary.Write(conn, binary.LittleEndian, uint32(MaxFrameRecords+1))
	binary.Write(conn, binary.LittleEndian, uint64(1))
	conn.Close()
	srv.Close()
	if len(srv.Errors()) == 0 {
		t.Error("oversized frame not reported")
	}
	if store.TotalRecords() != 0 {
		t.Error("records stored from oversized frame")
	}
}

func TestCollectFaultsOverlongName(t *testing.T) {
	srv, _ := startServer(t)
	defer srv.Close()

	long := string(make([]byte, MaxNameLen+1))
	// Client side refuses before touching the wire.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DialConn(conn, long); err == nil {
		t.Error("overlong name accepted client-side")
	}

	// Server side refuses a hand-rolled overlong handshake.
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	raw.Write(magic)
	binary.Write(raw, binary.LittleEndian, uint32(MaxNameLen+1))
	raw.Write(make([]byte, 16))
	var ack [ackSize]byte
	if _, err := io.ReadFull(raw, ack[:]); err == nil {
		t.Error("server acked an overlong name")
	}
	raw.Close()
}

func TestCollectFaultsOldMagicRejected(t *testing.T) {
	srv, store := startServer(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// The v1 protocol had no sequence numbers or acks; a v1 agent must be
	// rejected at the handshake, not half-understood.
	conn.Write([]byte("NTTRACE1"))
	binary.Write(conn, binary.LittleEndian, uint32(4))
	conn.Write([]byte("node"))
	// The handler closes the conn after rejecting the magic; reading to
	// EOF proves it ran before Close shuts the listener.
	io.Copy(io.Discard, conn)
	conn.Close()
	srv.Close()
	if len(srv.Errors()) == 0 {
		t.Error("v1 magic not rejected")
	}
	if store.TotalRecords() != 0 {
		t.Error("records stored from v1 stream")
	}
}

func TestCollectFaultsDialNonCollectServer(t *testing.T) {
	// A listener that accepts and immediately hangs up: Dial must fail at
	// the handshake (flushed + ack awaited), not succeed and break later.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	if _, err := Dial(ln.Addr().String(), "node"); err == nil {
		t.Fatal("Dial against a non-collect endpoint succeeded")
	}
}

func TestCollectFaultsConcurrentAgents(t *testing.T) {
	srv, store := startServer(t)
	const agents = 8
	const frames = 20
	var wg sync.WaitGroup
	errs := make(chan error, agents)
	for i := 0; i < agents; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			name := "conc-" + string(rune('a'+id))
			c, err := Dial(srv.Addr(), name)
			if err != nil {
				errs <- err
				return
			}
			for f := 0; f < frames; f++ {
				if err := c.Send(mkRecs(25, uint64(id*1000+f))); err != nil {
					errs <- err
					return
				}
			}
			errs <- c.Close()
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()
	for _, e := range srv.Errors() {
		t.Errorf("server error: %v", e)
	}
	if err := store.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := store.TotalRecords(); got != agents*frames*25 {
		t.Errorf("total records = %d, want %d", got, agents*frames*25)
	}
}

func TestCollectFaultsInjectorDialRefusal(t *testing.T) {
	srv, _ := startServer(t)
	defer srv.Close()

	inj := NewFaultInjector([]Fault{{RefuseDials: 2}})
	for i := 0; i < 2; i++ {
		if _, err := inj.Dial(srv.Addr()); !errors.Is(err, ErrDialRefused) {
			t.Fatalf("dial %d = %v, want ErrDialRefused", i, err)
		}
	}
	conn, err := inj.Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial after refusal window: %v", err)
	}
	conn.Close()
	// Schedule exhausted: fault-free from here on.
	conn, err = inj.Dial(srv.Addr())
	if err != nil {
		t.Fatalf("post-schedule dial: %v", err)
	}
	conn.Close()
	dials, refused, _ := inj.Counts()
	if dials != 4 || refused != 2 {
		t.Errorf("counts: dials=%d refused=%d, want 4/2", dials, refused)
	}
}

func TestCollectFaultsInjectorByteBudgetCut(t *testing.T) {
	srv, store := startServer(t)

	// First connection dies after ~1.5 frames' worth of bytes; the second
	// is fault-free, so resending everything must converge losslessly.
	budget := int64(len(magic) + 8 + len("cut-node") + ackSize + 12 + tracefmt.RecordSize*60)
	inj := NewFaultInjector([]Fault{{DropAfterBytes: budget}})

	conn, err := inj.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialConn(conn, "cut-node")
	if err != nil {
		t.Fatal(err)
	}
	var sent int
	var frames [][]tracefmt.Record
	for seq := uint64(1); ; seq++ {
		recs := mkRecs(40, seq)
		frames = append(frames, recs)
		if err := c.SendSeq(seq, recs); err != nil {
			break // budget spent mid-frame
		}
		sent += len(recs)
		if seq > 100 {
			t.Fatal("connection never cut")
		}
	}
	if _, _, cuts := inj.Counts(); cuts == 0 {
		t.Fatal("no cut counted")
	}

	// Reconnect (fault-free now) and resend every frame idempotently.
	c2, err := Dial(srv.Addr(), "cut-node")
	if err != nil {
		t.Fatal(err)
	}
	for i, recs := range frames {
		if err := c2.SendSeq(uint64(i+1), recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := store.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got, want := store.RecordCount("cut-node"), 40*len(frames); got != want {
		t.Errorf("records = %d, want %d (no loss, no duplicates)", got, want)
	}
}

func TestCollectFaultsInjectorWriteDelay(t *testing.T) {
	srv, _ := startServer(t)
	defer srv.Close()

	inj := NewFaultInjector([]Fault{{WriteDelay: 20 * time.Millisecond}})
	conn, err := inj.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	c, err := DialConn(conn, "slow-node")
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Errorf("handshake took %v, want >= 20ms of injected delay", elapsed)
	}
	c.Close()
}

func TestCollectFaultsRandomScheduleDeterministic(t *testing.T) {
	a := RandomFaults(sim.NewRNG(42), 10, 3, 1000, 100000)
	b := RandomFaults(sim.NewRNG(42), 10, 3, 1000, 100000)
	if len(a.plan) != 10 || len(b.plan) != 10 {
		t.Fatalf("plan lengths: %d, %d", len(a.plan), len(b.plan))
	}
	for i := range a.plan {
		if a.plan[i] != b.plan[i] {
			t.Fatalf("plans diverge at %d: %+v vs %+v", i, a.plan[i], b.plan[i])
		}
		if f := a.plan[i]; f.DropAfterBytes < 1000 || f.DropAfterBytes >= 100000 || f.RefuseDials < 0 || f.RefuseDials > 3 {
			t.Fatalf("entry %d out of range: %+v", i, f)
		}
	}
	c := RandomFaults(sim.NewRNG(43), 10, 3, 1000, 100000)
	same := true
	for i := range a.plan {
		if a.plan[i] != c.plan[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
}

// TestClientSlowAckTimeout pins the AckTimeout contract on the slow-ack
// path: a server that stores a frame but never acknowledges it must fail
// the Send with a timeout error at the deadline, not hang forever.
func TestClientSlowAckTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// A hand-rolled endpoint that completes the handshake, then reads the
	// first frame and goes silent.
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		head := make([]byte, len(magic))
		if _, err := io.ReadFull(conn, head); err != nil {
			return
		}
		var nameLen uint32
		binary.Read(conn, binary.LittleEndian, &nameLen)
		name := make([]byte, nameLen)
		io.ReadFull(conn, name)
		writeAck(conn, 0)
		// Swallow the frame header and payload, then never ack.
		var count uint32
		binary.Read(conn, binary.LittleEndian, &count)
		var seq uint64
		binary.Read(conn, binary.LittleEndian, &seq)
		body := make([]byte, int(count)*tracefmt.RecordSize)
		io.ReadFull(conn, body)
		time.Sleep(10 * time.Second)
	}()

	c, err := Dial(ln.Addr().String(), "slow-ack-node")
	if err != nil {
		t.Fatal(err)
	}
	defer c.conn.Close()
	c.AckTimeout = 100 * time.Millisecond
	start := time.Now()
	err = c.Send(mkRecs(10, 1))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Send with silent server succeeded")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("Send error = %v, want a net timeout", err)
	}
	if elapsed < 100*time.Millisecond || elapsed > 5*time.Second {
		t.Errorf("Send failed after %v, want ~100ms AckTimeout", elapsed)
	}
}

// TestClientCloseIdempotent pins the client-side close contract: Close
// twice is nil both times, and a send on the closed client fails with
// ErrClientClosed instead of scribbling on the ended stream.
func TestClientCloseIdempotent(t *testing.T) {
	srv, store := startServer(t)
	c, err := Dial(srv.Addr(), "idem-client")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(mkRecs(15, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close: %v, want nil", err)
	}
	if err := c.Send(mkRecs(5, 2)); !errors.Is(err, ErrClientClosed) {
		t.Errorf("Send after Close = %v, want ErrClientClosed", err)
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
	if n := store.RecordCount("idem-client"); n != 15 {
		t.Errorf("stored %d records, want 15", n)
	}
}
