package shardrpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polardraw/internal/codec"
	"polardraw/internal/core"
	"polardraw/internal/font"
	"polardraw/internal/geom"
	"polardraw/internal/motion"
	"polardraw/internal/reader"
	"polardraw/internal/rf"
	"polardraw/internal/session"
	"polardraw/internal/tag"
)

// ctx is the background context shared by tests that exercise the
// happy path rather than cancellation (see context-specific tests for
// deadline coverage).
var ctx = context.Background()

// penStreams simulates n pens writing concurrently over one reader
// (mirrors the session package's test helper).
func penStreams(t testing.TB, n int, seed uint64) ([]reader.Sample, [2]rf.Antenna) {
	t.Helper()
	rig := motion.DefaultRig()
	ants := rig.Antennas()
	ch := &rf.Channel{Reflectors: rf.OfficeReflectors(rig.BoardW)}
	tag.AD227(1).ApplyTo(ch)

	letters := []rune{'A', 'C', 'M', 'S', 'Z', 'O', 'W', 'H'}
	scenes := make([]reader.TaggedScene, 0, n)
	for k := 0; k < n; k++ {
		r := letters[k%len(letters)]
		g, ok := font.Lookup(r)
		if !ok {
			t.Fatalf("no glyph %c", r)
		}
		path := g.Path().Scale(0.18).Translate(geom.Vec2{X: 0.18, Y: 0.03})
		sess := motion.Write(path, string(r), motion.Config{Seed: seed + uint64(k)})
		scenes = append(scenes, reader.TaggedScene{EPC: tag.AD227(uint32(k + 1)).EPC, Scene: sess})
	}
	rd := reader.New(reader.Config{Antennas: ants[:], Channel: ch, EPC: "", Seed: seed})
	return rd.MultiInventory(scenes), ants
}

// startServer runs a shard server on a loopback port and returns its
// address plus a cleanup.
func startServer(t testing.TB, cfg ServerConfig) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(cfg)
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return srv, ln.Addr().String()
}

func sessionCfg(ants [2]rf.Antenna, window float64, lag int) session.Config {
	return session.Config{
		Tracker: core.Config{Antennas: ants, Window: window, CommitLag: lag},
	}
}

// TestRemoteLocalEquivalence is the acceptance test of the RPC
// boundary: the same mixed multi-pen stream, dispatched through an
// in-process LocalBackend and through a shardrpc client/server pair,
// must produce bit-identical core.Result values per EPC — trajectory,
// windows, correction, counters — both for per-EPC Finalize and for
// the bulk Close path.
func TestRemoteLocalEquivalence(t *testing.T) {
	const pens = 4
	samples, ants := penStreams(t, pens, 31)
	const window, lag = 0.2, 16

	local := session.NewLocalBackend(sessionCfg(ants, window, lag), nil)
	_, addr := startServer(t, ServerConfig{Session: sessionCfg(ants, window, lag)})
	client, err := Dial(ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}

	if err := local.DispatchBatch(ctx, samples); err != nil {
		t.Fatal(err)
	}
	if err := client.DispatchBatch(ctx, samples); err != nil {
		t.Fatal(err)
	}

	// Finalize one pen explicitly over both transports, straight after
	// the dispatch: both order it after the pen's samples.
	probe := samples[0].EPC
	wantProbe, err := local.Finalize(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	gotProbe, err := client.Finalize(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotProbe, wantProbe) {
		t.Fatalf("remote Finalize diverged from local:\nremote: %+v\nlocal:  %+v", gotProbe, wantProbe)
	}

	// Finalizing an unknown EPC round-trips the sentinel.
	if _, err := client.Finalize(ctx, "no-such-pen"); !errors.Is(err, session.ErrUnknownEPC) {
		t.Fatalf("unknown-session error did not round-trip: %v", err)
	}

	// Bulk path: every remaining pen via Close on both transports.
	want, err := local.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != pens-1 || len(got) != pens-1 {
		t.Fatalf("close results: local %d, remote %d, want %d", len(want), len(got), pens-1)
	}
	for epc, w := range want {
		g, ok := got[epc]
		if !ok {
			t.Fatalf("remote close missing EPC %s", epc)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("EPC %s: remote result diverged from local", epc)
		}
	}

	// Terminal client: every later call reports closure.
	if err := client.Dispatch(ctx, samples[0]); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("dispatch after close: %v", err)
	}
	if res, err := client.Close(ctx); res != nil || err != nil {
		t.Fatalf("second close: %v, %v", res, err)
	}
}

// TestRouterOverRemoteShards drives a 2-process-shaped topology in
// one process: two shard servers, two clients, one rendezvous router —
// exactly what `loadgen -shards host:port,host:port` builds — and
// checks sessions land spread across both servers with correct
// merged stats and results.
func TestRouterOverRemoteShards(t *testing.T) {
	const pens = 6
	samples, ants := penStreams(t, pens, 37)

	// Backends get fixed router names (the name is what rendezvous
	// hashes; the address only matters for dialing): with the ephemeral
	// port as the name, the 6-EPC spread below would be one-sided on
	// ~3% of runs purely by hash luck. Fixed names make it
	// deterministic — and deterministically two-sided.
	var nbs []session.NamedBackend
	for i := 0; i < 2; i++ {
		_, addr := startServer(t, ServerConfig{Session: sessionCfg(ants, 0.2, 0)})
		c, err := Dial(ClientConfig{Addr: addr})
		if err != nil {
			t.Fatal(err)
		}
		nbs = append(nbs, session.NamedBackend{Name: fmt.Sprintf("shard-%d", i), Backend: c})
	}
	r := session.NewRouter(nbs)

	if err := r.DispatchBatch(ctx, samples); err != nil {
		t.Fatal(err)
	}
	results, err := r.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != pens {
		t.Fatalf("router close decoded %d pens, want %d", len(results), pens)
	}

	// Both server processes should have hosted at least one pen (6
	// EPCs over 2 rendezvous backends land one-sided with prob ~2^-5).
	perBackend := map[string]int{}
	for epc := range results {
		perBackend[r.BackendFor(epc)]++
	}
	if len(perBackend) != 2 {
		t.Fatalf("all pens landed on one backend: %v", perBackend)
	}

	for _, h := range r.Health() {
		if !h.Healthy || h.Dropped != 0 {
			t.Fatalf("backend %s unhealthy after clean run: %+v", h.Name, h)
		}
	}
}

// pointEvt is one observed EventPoint payload.
type pointEvt struct {
	w    core.Window
	live geom.Vec2
}

// TestRemoteEvents checks the Point stream over the wire: a client
// subscription receives the same EPC/window/live payloads a
// server-side subscription observes, in the same per-EPC order.
// Events racing the Close response may be cut off, so the remote view
// must be a per-EPC prefix of the server-side one.
func TestRemoteEvents(t *testing.T) {
	const pens = 2
	samples, ants := penStreams(t, pens, 41)

	var mu sync.Mutex
	remote := map[string][]pointEvt{}
	srvSide := map[string][]pointEvt{}
	record := func(ch <-chan Event, into map[string][]pointEvt) <-chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			for ev := range ch {
				mu.Lock()
				into[ev.EPC] = append(into[ev.EPC], pointEvt{ev.Window, ev.Live})
				mu.Unlock()
			}
		}()
		return done
	}
	points := session.SubscribeOptions{Kinds: []session.EventKind{session.EventPoint}}

	cfg := sessionCfg(ants, 0.25, 0)
	// The server-side view is the reference, so it must not shed.
	cfg.EventBuffer = 1 << 16
	srv, addr := startServer(t, ServerConfig{Session: cfg})
	srvCh, srvCancel := srv.Manager().SubscribeFiltered(ctx, points)
	srvDone := record(srvCh, srvSide)
	client, err := Dial(ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	cliCh, _ := client.SubscribeFiltered(ctx, points)
	cliDone := record(cliCh, remote)

	if err := client.DispatchBatch(ctx, samples); err != nil {
		t.Fatal(err)
	}
	if err := client.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// Wait for live events from every pen while the server decodes,
	// BEFORE closing: the close teardown stops event delivery.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		live := len(remote)
		mu.Unlock()
		if live == pens {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("live events from %d pens, want %d", live, pens)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := client.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// After Close returns, both sides are quiescent: the client read
	// loop is down (ending its subscription) and the server finalized
	// every session.
	srvCancel()
	<-srvDone
	<-cliDone
	mu.Lock()
	defer mu.Unlock()
	if srv.EventsDropped() > 0 {
		t.Logf("note: %d events shed at the subscriber queue", srv.EventsDropped())
	}
	for epc, evs := range remote {
		want := srvSide[epc]
		if len(evs) > len(want) {
			t.Fatalf("EPC %s: more remote events (%d) than server-side (%d)", epc, len(evs), len(want))
		}
		if srv.EventsDropped() == 0 && !reflect.DeepEqual(evs, want[:len(evs)]) {
			t.Fatalf("EPC %s: remote events are not a prefix of server-side events", epc)
		}
	}
}

// TestClientControlCalls covers Ping/Len/EvictIdle/Stats round-trips.
func TestClientControlCalls(t *testing.T) {
	samples, ants := penStreams(t, 3, 43)
	_, addr := startServer(t, ServerConfig{Session: sessionCfg(ants, 0.2, 0)})
	client, err := Dial(ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close(ctx)

	if err := client.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	if err := client.DispatchBatch(ctx, samples); err != nil {
		t.Fatal(err)
	}
	if err := client.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		n, err := client.Len(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if n == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sessions = %d, want 3", n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != 3 {
		t.Fatalf("stats = %d, want 3", len(st))
	}
	for i := 1; i < len(st); i++ {
		if st[i-1].EPC >= st[i].EPC {
			t.Fatalf("stats unsorted: %s >= %s", st[i-1].EPC, st[i].EPC)
		}
	}
	for _, s := range st {
		if s.Received == 0 || s.LastActive.IsZero() {
			t.Fatalf("stats not populated: %+v", s)
		}
	}
	n, err := client.EvictIdle(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("evicted %d, want 3", n)
	}
}

// TestClientConcurrentDispatch hammers one client from many
// goroutines while a stats poller runs — the -race coverage for the
// client's shared connection state.
func TestClientConcurrentDispatch(t *testing.T) {
	samples, ants := penStreams(t, 4, 47)
	perEPC := reader.SplitByEPC(samples)
	_, addr := startServer(t, ServerConfig{Session: sessionCfg(ants, 0.3, 8)})
	client, err := Dial(ClientConfig{Addr: addr, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var stop atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, err := client.Stats(ctx); err != nil {
				t.Errorf("stats: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	var dwg sync.WaitGroup
	for epc := range perEPC {
		dwg.Add(1)
		go func(epc string) {
			defer dwg.Done()
			for _, smp := range perEPC[epc] {
				if err := client.Dispatch(ctx, smp); err != nil {
					t.Errorf("dispatch: %v", err)
					return
				}
			}
		}(epc)
	}
	dwg.Wait()
	stop.Store(true)
	wg.Wait()
	results, err := client.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("decoded %d pens, want 4", len(results))
	}
	if client.Lost() != 0 {
		t.Fatalf("lost %d samples on a healthy connection", client.Lost())
	}
}

// TestProtoRoundTrip checks the codec over awkward values.
func TestProtoRoundTrip(t *testing.T) {
	smp := reader.Sample{T: -1.5, Antenna: 7, RSS: -62.25, Phase: 3.14159, EPC: "E280-1160"}
	// Antennas outside the layout's byte (negative, or past 254) cross
	// as 255, which the two-antenna tracker skips like the original.
	offByte := reader.Sample{T: 2, Antenna: -1, EPC: "E280-1161"}
	var e codec.Encoder
	encodeSamples(&e, []reader.Sample{smp, {}, offByte})
	d := codec.NewDecoder(e.Bytes())
	got := decodeSamples(&d)
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("decode: err=%v remaining=%d", d.Err(), d.Remaining())
	}
	offByte.Antenna = 255
	if !reflect.DeepEqual(got, []reader.Sample{smp, {}, offByte}) {
		t.Fatalf("samples round-trip: %+v", got)
	}

	res := &core.Result{
		Trajectory: geom.Polyline{{X: 0.1, Y: 0.2}, {X: -0.3, Y: 1e-9}},
		Windows: []core.Window{{
			T: 0.5, RSS: [2]float64{-60, -61.5}, Phase: [2]float64{0.1, 6.2},
			Count: [2]int{3, 4}, Valid: true, Spurious: [2]bool{false, true},
		}},
		Correction:           -0.25,
		RotationalWindows:    7,
		TranslationalWindows: 9,
		SpuriousRejected:     2,
	}
	e = codec.Encoder{}
	encodeResult(&e, res)
	d = codec.NewDecoder(e.Bytes())
	gotRes := decodeResult(&d)
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("result decode: err=%v remaining=%d", d.Err(), d.Remaining())
	}
	if !reflect.DeepEqual(gotRes, res) {
		t.Fatalf("result round-trip:\ngot  %+v\nwant %+v", gotRes, res)
	}

	// Truncations must error, never panic or fabricate data.
	for cut := 0; cut < len(e.Bytes()); cut++ {
		d := codec.NewDecoder(e.Bytes()[:cut])
		decodeResult(&d)
		if d.Err() == nil && cut < len(e.Bytes()) {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

// TestFrameGuards rejects oversized and zero-length frames.
func TestFrameGuards(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	go c1.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, _, err := readFrame(c2); err == nil {
		t.Fatal("oversized frame accepted")
	}
	go c1.Write([]byte{0, 0, 0, 0})
	if _, _, err := readFrame(c2); err == nil {
		t.Fatal("zero-length frame accepted")
	}
}

// TestServerSurvivesGarbage feeds a raw connection junk and checks the
// server drops it without disturbing a concurrent legitimate client.
func TestServerSurvivesGarbage(t *testing.T) {
	samples, ants := penStreams(t, 2, 53)
	_, addr := startServer(t, ServerConfig{Session: sessionCfg(ants, 0.2, 0)})

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte{0x00, 0x00, 0x00, 0x03, 0x7f, 0xde, 0xad}) // unknown opcode
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	// A non-hello first frame is version skew by definition: the server
	// answers with the explicit mismatch error, then hangs up.
	op, payload, err := readFrame(raw)
	if err != nil || op != opResp {
		t.Fatalf("garbage first frame: op=0x%02x err=%v, want an opResp error", op, err)
	}
	d := codec.NewDecoder(payload)
	if err := checkStatus(&d); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("garbage first frame error = %v, want ErrVersionMismatch", err)
	}
	buf := make([]byte, 1)
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("server kept a garbage connection open")
	}
	raw.Close()

	client, err := Dial(ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.DispatchBatch(ctx, samples); err != nil {
		t.Fatal(err)
	}
	results, err := client.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("decoded %d pens, want 2", len(results))
	}
}

// TestServerBackpressure: with a blocking session queue, dispatch
// stalls the conn's read loop, not the decode workers — eventually
// everything drains and decodes. (Implicitly covered by large batches
// in other tests; here a tiny queue forces the stall path.)
func TestServerBackpressure(t *testing.T) {
	samples, ants := penStreams(t, 2, 59)
	cfg := sessionCfg(ants, 0.2, 0)
	cfg.QueueSize = 2
	_, addr := startServer(t, ServerConfig{Session: cfg})
	client, err := Dial(ClientConfig{Addr: addr, BatchSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.DispatchBatch(ctx, samples); err != nil {
		t.Fatal(err)
	}
	results, err := client.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("decoded %d pens, want 2", len(results))
	}
	for epc, res := range results {
		if len(res.Trajectory) == 0 {
			t.Fatalf("empty trajectory for %s", epc)
		}
	}
}
