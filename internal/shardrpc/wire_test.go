package shardrpc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polardraw/internal/codec"
	"polardraw/internal/geom"
	"polardraw/internal/motion"
	"polardraw/internal/reader"
	"polardraw/internal/session"
)

// fewSamples returns n synthetic reads of one pen, alternating
// antennas: enough for the wire and a session's counters, no decode.
func fewSamples(epc string, n int) []reader.Sample {
	out := make([]reader.Sample, n)
	for i := range out {
		out[i] = reader.Sample{T: 0.01 * float64(i), Antenna: i % 2, RSS: -55, Phase: 1.5, EPC: epc}
	}
	return out
}

// wireServerCfg is a session config over the default rig's antennas,
// for tests that never decode a real stroke.
func wireServerCfg() ServerConfig {
	return ServerConfig{Session: sessionCfg(motion.DefaultRig().Antennas(), 0.2, 16)}
}

// awaitCond polls cond until it holds or d passes.
func awaitCond(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// TestDispatchBatchDoesNotWaitForTicker pins that DispatchBatch writes
// its samples before it returns. With an hour-long FlushInterval and a
// BatchSize far above the batch, a buffered batch would sit in the
// client until the ticker fired; the server must count the samples
// received without any Flush or control call from the client.
func TestDispatchBatchDoesNotWaitForTicker(t *testing.T) {
	srv, addr := startServer(t, wireServerCfg())
	c, err := Dial(ClientConfig{Addr: addr, FlushInterval: time.Hour, BatchSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Detach()
	const n = 5
	if err := c.DispatchBatch(ctx, fewSamples("pen-ticker", n)); err != nil {
		t.Fatal(err)
	}
	var received uint64
	if !awaitCond(time.Second, func() bool {
		received = 0
		for _, s := range srv.Manager().Stats() {
			received += s.Received
		}
		return received == n
	}) {
		t.Fatalf("server received %d of %d samples within 1s of DispatchBatch returning", received, n)
	}
}

// countingListener wraps accepted connections so the test can count
// the server's socket writes on each.
type countingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*countingConn
}

type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c}
	l.mu.Lock()
	l.conns = append(l.conns, cc)
	l.mu.Unlock()
	return cc, nil
}

// onlySrvConn returns the server's one live connection.
func onlySrvConn(t *testing.T, srv *Server) *srvConn {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.conns) != 1 {
		t.Fatalf("server holds %d connections, want 1", len(srv.conns))
	}
	for sc := range srv.conns {
		return sc
	}
	return nil
}

// TestEventPumpCoalescesBursts queues a burst of events behind a pump
// that cannot write yet, then lets it go: the burst must reach the
// client in fewer socket writes than events, in publish order, with
// none lost.
func TestEventPumpCoalescesBursts(t *testing.T) {
	const n = 32
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	srv := NewServer(wireServerCfg())
	go srv.Serve(cl)
	t.Cleanup(srv.Close)
	c, err := Dial(ClientConfig{Addr: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Detach()

	m := srv.Manager()
	for i := 0; i < n; i++ {
		if err := m.Open(fmt.Sprintf("pen-%02d", i), session.OpenOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	evict := session.SubscribeOptions{Kinds: []session.EventKind{session.EventEvict}}
	got, cancel := c.SubscribeFiltered(ctx, evict)
	defer cancel()
	want, wantCancel := m.SubscribeFiltered(ctx, evict)
	defer wantCancel()
	// The ping is answered after the subscribe frame is handled, so the
	// server's pump is attached from here on.
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}

	// Hold the connection's write lock while the sweep publishes every
	// Evict event: the pump blocks on its first event, the rest queue.
	sc := onlySrvConn(t, srv)
	sc.wmu.Lock()
	if k := m.EvictIdle(0); k != n {
		sc.wmu.Unlock()
		t.Fatalf("EvictIdle = %d, want %d", k, n)
	}
	cl.mu.Lock()
	cc := cl.conns[0]
	cl.mu.Unlock()
	before := cc.writes.Load()
	sc.wmu.Unlock()

	deadline := time.After(10 * time.Second)
	for i := 0; i < n; i++ {
		var w, g session.Event
		select {
		case w = <-want:
		case <-deadline:
			t.Fatalf("in-process subscriber saw %d of %d events", i, n)
		}
		select {
		case g = <-got:
		case <-deadline:
			t.Fatalf("client received %d of %d events", i, n)
		}
		if g.Kind != session.EventEvict || g.EPC != w.EPC {
			t.Fatalf("event %d is %v for %s, want Evict for %s", i, g.Kind, g.EPC, w.EPC)
		}
	}
	if writes := cc.writes.Load() - before; writes >= n {
		t.Fatalf("%d queued events took %d socket writes, want fewer", n, writes)
	} else {
		t.Logf("%d queued events in %d socket write(s)", n, writes)
	}
}

// slowWriter stands in for a congested socket: each write takes a
// little while, so the pump falls behind a producer that keeps its
// queue full. It closes busy at the 100th write.
type slowWriter struct {
	writes atomic.Int64
	busy   chan struct{}
}

func (w *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(20 * time.Microsecond)
	if w.writes.Add(1) == 100 {
		close(w.busy)
	}
	return len(p), nil
}

// TestAckNotStarvedByEventStream keeps a pump behind an event stream
// that never runs dry, then writes an ack the way the read loop does.
// The ack must get through: each burst ends at the queue length seen
// when it began, so the pump yields the write lock even though its
// queue is never empty.
func TestAckNotStarvedByEventStream(t *testing.T) {
	w := &slowWriter{busy: make(chan struct{})}
	// A buffer smaller than one frame sends every frame through w.
	sc := &srvConn{s: &Server{}, bw: bufio.NewWriterSize(w, 16)}
	ch := make(chan session.Event, 64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		sc.pump(ch)
	}()
	go func() {
		defer wg.Done()
		defer close(ch)
		ev := session.Event{Kind: session.EventPoint, EPC: "pen-flood"}
		for {
			select {
			case ch <- ev:
			case <-stop:
				return
			}
		}
	}()
	defer wg.Wait()
	defer close(stop)

	select {
	case <-w.busy:
	case <-time.After(5 * time.Second):
		t.Fatal("the event stream never got going")
	}
	acked := make(chan error, 1)
	go func() {
		var ack [16]byte
		binary.BigEndian.PutUint64(ack[:8], 7)
		acked <- sc.write(opAck, ack[:])
	}()
	select {
	case err := <-acked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("an ack written during an endless event stream was starved of the write lock")
	}
}

// ackServer is a minimal shard peer for the allocation budget: it
// answers the hello, then acks every opDispatchSeq frame in full. It
// reads into and writes from fixed buffers, so its own allocations do
// not count against the client's.
func ackServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var hdr [4]byte
		payload := make([]byte, 1<<16)
		read := func() (byte, []byte, bool) {
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				return 0, nil, false
			}
			n := int(binary.BigEndian.Uint32(hdr[:]))
			if n > len(payload) {
				return 0, nil, false
			}
			if _, err := io.ReadFull(conn, payload[:n]); err != nil {
				return 0, nil, false
			}
			return payload[0], payload[1:n], true
		}
		if op, _, ok := read(); !ok || op != opHello {
			return
		}
		if _, err := conn.Write([]byte{0, 0, 0, 3, opResp, statusOK, protoVersion}); err != nil {
			return
		}
		ack := [5 + 16]byte{0, 0, 0, 17, opAck}
		for {
			op, p, ok := read()
			if !ok {
				return
			}
			if op != opDispatchSeq || len(p) < 12 {
				continue
			}
			first, count := binary.BigEndian.Uint64(p), binary.BigEndian.Uint32(p[8:])
			binary.BigEndian.PutUint64(ack[5:], first+uint64(count)-1)
			if _, err := conn.Write(ack[:]); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// countingWriter counts the bytes written through it and drops them.
type countingWriter struct{ n atomic.Int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n.Add(int64(len(p)))
	return len(p), nil
}

// TestBudgetDispatchBatchAllocs pins the wire layer's allocations in
// steady state (ROADMAP item 5): a DispatchBatch plus the ack that
// releases its samples, on the client, and each event the server's
// pump frames. The batch's encoder, sample scratch and resend buffers
// are reused, as is the pump's encoder; what is left is the read
// loop's frame buffer.
func TestBudgetDispatchBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("memory budgets are pinned without the race detector")
	}
	t.Run("dispatch-batch", func(t *testing.T) {
		const budget = 2
		c, err := Dial(ClientConfig{Addr: ackServer(t)})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Detach()
		batch := fewSamples("pen-budget", 22)
		unacked := func() int {
			c.mu.Lock()
			defer c.mu.Unlock()
			return len(c.sent) + len(c.pending)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := c.DispatchBatch(ctx, batch); err != nil {
				t.Fatal(err)
			}
			// Sleep rather than yield: the ack arrives through the
			// network poller, which a spinning goroutine starves.
			for unacked() > 0 {
				time.Sleep(10 * time.Microsecond)
			}
		})
		t.Logf("%v allocations per %d-sample DispatchBatch and its ack (budget %d)", allocs, len(batch), budget)
		if allocs > budget {
			t.Fatalf("a DispatchBatch and its ack make %v allocations, budget %d", allocs, budget)
		}
	})
	t.Run("event-pump", func(t *testing.T) {
		const burst, budget = 16, 0
		w := &countingWriter{}
		sc := &srvConn{s: &Server{}, bw: bufio.NewWriter(w)}
		ch := make(chan session.Event, burst)
		done := make(chan struct{})
		go func() {
			defer close(done)
			sc.pump(ch)
		}()
		defer func() {
			close(ch)
			<-done
		}()
		seg := make(geom.Polyline, 8)
		for i := range seg {
			seg[i] = geom.Vec2{X: 0.01 * float64(i), Y: 0.02}
		}
		ev := session.Event{Kind: session.EventCommit, EPC: "pen-budget", CommitStart: 40, Segment: seg}
		frame := eventFrameBytes(t, ev)
		var sent int64
		allocs := testing.AllocsPerRun(200, func() {
			for i := 0; i < burst; i++ {
				ch <- ev
			}
			sent += burst
			for w.n.Load() < sent*frame {
				runtime.Gosched()
			}
		})
		t.Logf("%v allocations per %d-event burst (budget %d)", allocs, burst, budget)
		if allocs > budget {
			t.Fatalf("the pump makes %v allocations per %d-event burst, budget %d", allocs, burst, budget)
		}
	})
}

// eventFrameBytes is the wire size of ev's opEvent frame.
func eventFrameBytes(t *testing.T, ev session.Event) int64 {
	t.Helper()
	var e codec.Encoder
	encodeEvent(&e, ev)
	if e.Err() != nil {
		t.Fatal(e.Err())
	}
	return int64(5 + len(e.Bytes()))
}
