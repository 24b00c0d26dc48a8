package collect

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"

	"repro/internal/tracefmt"
)

// feedConn is the server's end of one agent connection: reads come from
// the fuzz input and end in io.EOF, writes (the acks) go over a net.Pipe
// to a draining reader. Feeding the input through the pipe too would
// need the agent end closed to signal EOF, which also fails any ack the
// handler has yet to write, so what it stores would depend on
// scheduling.
type feedConn struct {
	net.Conn
	in io.Reader
}

func (c feedConn) Read(p []byte) (int, error) { return c.in.Read(p) }

// wireEnd is how a connection's byte stream ends under the NTTRACE2
// protocol.
type wireEnd int

const (
	endEarly     wireEnd = iota // gone before the handshake completed
	endRejected                 // bad magic, overlong name or oversized frame
	endTruncated                // gone mid-stream after the handshake
	endClean                    // end frame (count 0)
)

// wireModel is what the server must do with raw, read straight from the
// protocol: the records of every whole frame with a fresh sequence
// number in arrival order, the high-water mark each ack carries, and how
// the stream ends.
type wireModel struct {
	machine string
	recs    []tracefmt.Record
	acks    []uint64
	end     wireEnd
}

func modelHandle(raw []byte) (m wireModel) {
	le := binary.LittleEndian
	if len(raw) < len(magic) {
		return m
	}
	if !bytes.Equal(raw[:len(magic)], magic) {
		m.end = endRejected
		return m
	}
	raw = raw[len(magic):]
	if len(raw) < 4 {
		return m
	}
	nameLen := le.Uint32(raw)
	raw = raw[4:]
	if nameLen > MaxNameLen {
		m.end = endRejected
		return m
	}
	if uint32(len(raw)) < nameLen {
		return m
	}
	m.machine, raw = string(raw[:nameLen]), raw[nameLen:]
	var last uint64
	m.acks = append(m.acks, last)
	m.end = endTruncated
	for len(raw) >= 4 {
		count := le.Uint32(raw)
		raw = raw[4:]
		if count == 0 {
			m.acks = append(m.acks, last)
			m.end = endClean
			return m
		}
		if count > MaxFrameRecords {
			m.end = endRejected
			return m
		}
		size := uint64(count) * tracefmt.RecordSize
		if len(raw) < 8 || uint64(len(raw)-8) < size {
			return m
		}
		seq := le.Uint64(raw)
		data := raw[8 : 8+size]
		raw = raw[8+size:]
		if seq > last {
			for len(data) > 0 {
				var r tracefmt.Record
				data, _ = r.Decode(data)
				m.recs = append(m.recs, r)
			}
			last = seq
		}
		m.acks = append(m.acks, last)
	}
	return m
}

// wireFrame encodes one data frame (count 0 is the end frame).
func wireFrame(seq uint64, recs []tracefmt.Record) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(recs)))
	if len(recs) == 0 {
		return b
	}
	b = binary.LittleEndian.AppendUint64(b, seq)
	for i := range recs {
		b = recs[i].Encode(b)
	}
	return b
}

// FuzzServerHandle feeds arbitrary bytes to the collection server's
// connection handler — the network-facing NTTRACE2 decoder behind
// fsfleet -serve. The handler must never panic; must reject overlong
// names and oversized frames before allocating for them, acking nothing
// past the bound; must store exactly the records of the frames that
// arrived whole with a fresh sequence number, in order; and must ack the
// handshake and every whole frame with the stored high-water mark.
func FuzzServerHandle(f *testing.F) {
	hello := append(append([]byte{}, magic...), 4, 0, 0, 0, 'n', 'o', 'd', 'e')
	valid := append(append(append([]byte{}, hello...), wireFrame(1, mkRecs(3, 7))...), wireFrame(0, nil)...)
	f.Add(valid)
	f.Add(append([]byte("NTTRACE1"), 4, 0, 0, 0, 'n', 'o', 'd', 'e'))
	oversized := binary.LittleEndian.AppendUint32(append([]byte{}, hello...), MaxFrameRecords+1)
	f.Add(binary.LittleEndian.AppendUint64(oversized, 1))

	f.Fuzz(func(t *testing.T, raw []byte) {
		want := modelHandle(raw)
		s := &Server{store: NewStore(), seen: map[string]uint64{}, m: newServerMetrics(nil)}
		srvEnd, agentEnd := net.Pipe()
		drained := make(chan []byte)
		go func() {
			b, _ := io.ReadAll(agentEnd)
			drained <- b
		}()
		err := s.handle(feedConn{srvEnd, bytes.NewReader(raw)})
		acks := <-drained

		var te *TruncatedError
		switch want.end {
		case endEarly:
			if !errors.Is(err, errEarlyEOF) {
				t.Fatalf("stream gone before the handshake: err = %v, want early EOF", err)
			}
		case endRejected:
			if err == nil || errors.Is(err, errEarlyEOF) || errors.As(err, &te) {
				t.Fatalf("stream past a protocol bound: err = %v, want a rejection", err)
			}
		case endTruncated:
			if !errors.As(err, &te) || te.Machine != want.machine {
				t.Fatalf("stream gone mid-frame: err = %v, want truncation of %q", err, want.machine)
			}
		case endClean:
			if err != nil {
				t.Fatalf("clean close: err = %v", err)
			}
		}

		if len(acks) != len(want.acks)*ackSize {
			t.Fatalf("server wrote %d ack bytes, want %d acks", len(acks), len(want.acks))
		}
		for i, seq := range want.acks {
			ack := acks[i*ackSize : (i+1)*ackSize]
			if !bytes.Equal(ack[:4], ackMagic) || binary.LittleEndian.Uint64(ack[4:]) != seq {
				t.Fatalf("ack %d = %x, want high-water mark %d", i, ack, seq)
			}
		}

		if len(want.recs) == 0 {
			if got := s.store.Machines(); len(got) != 0 {
				t.Fatalf("store holds streams %q, want none", got)
			}
			return
		}
		if err := s.store.FinalizeMachine(want.machine); err != nil {
			t.Fatal(err)
		}
		got, err := s.store.Records(want.machine)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want.recs) {
			t.Fatalf("store holds %d records, want %d", len(got), len(want.recs))
		}
		for i := range got {
			if got[i] != want.recs[i] {
				t.Fatalf("stored record %d differs from the frame's", i)
			}
		}
	})
}
