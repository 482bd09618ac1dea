// Conformance suite for the shardrpc wire protocol: the version
// handshake and its refusals, the error taxonomy, OpenOptions and
// membership/subscribe/telemetry codecs, sequence-numbered dispatch
// with acks and resend, subscription replay, the bit-equivalence of
// remote and local decodes, and the ShardBackend ordering contract on
// every transport.

package shardrpc

import (
	"bufio"
	"context"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polardraw/internal/codec"
	"polardraw/internal/core"
	"polardraw/internal/geom"
	"polardraw/internal/reader"
	"polardraw/internal/session"
	"polardraw/internal/telemetry"
)

// helloPayload encodes an opHello body in the one hello layout —
// version, client identity, default OpenOptions — naming version v.
func helloPayload(t *testing.T, v byte, clientID string) []byte {
	t.Helper()
	var e codec.Encoder
	if encodeHello(&e, v, clientID, session.OpenOptions{}); e.Err() != nil {
		t.Fatal(e.Err())
	}
	return e.Bytes()
}

// decoderOf returns a decoder over b, for one-line decode calls.
func decoderOf(b []byte) *codec.Decoder {
	d := codec.NewDecoder(b)
	return &d
}

// fakeHelloServer accepts connections and answers each first frame
// with reply (nil: hang up without answering), then drops the
// connection.
func fakeHelloServer(t *testing.T, reply func() []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if _, _, err := readFrame(bufio.NewReader(c)); err == nil {
				if payload := reply(); payload != nil {
					bw := bufio.NewWriter(c)
					writeFrame(bw, opResp, payload)
					bw.Flush()
				}
			}
			c.Close()
		}
	}()
	return ln.Addr().String()
}

// TestVersionHandshake pins the single-dialect handshake: the happy
// path, the server's refusals (a first frame that is not a hello, an
// older hello, a newer hello — each answered with ErrVersionMismatch
// and a hangup), and the client's refusal of a server that answers
// with another version.
func TestVersionHandshake(t *testing.T) {
	_, ants := penStreams(t, 1, 61)
	_, addr := startServer(t, ServerConfig{Session: sessionCfg(ants, 0.2, 0)})

	// Happy path: Dial performs the handshake transparently.
	client, err := Dial(ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	client.Close(ctx)

	// Server refusals. Each first frame is otherwise well formed, so
	// the version (or the missing hello) alone is what gets refused.
	for _, tc := range []struct {
		name    string
		op      byte
		payload []byte
	}{
		{"non-hello first frame", opPing, nil},
		{"older hello", opHello, helloPayload(t, protoVersion-1, "old-client")},
		// A v5 client's hello, in the v5 layout (BeamTopK as an i32).
		{"v5 hello", opHello, []byte{5, 0, 2, 'v', '5', 0x01, 0, 0, 0, 64}},
		{"newer hello", opHello, helloPayload(t, protoVersion+1, "new-client")},
	} {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		bw := bufio.NewWriter(raw)
		if err := writeFrame(bw, tc.op, tc.payload); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		raw.SetReadDeadline(time.Now().Add(5 * time.Second))
		op, payload, err := readFrame(raw)
		if err != nil || op != opResp {
			t.Fatalf("%s: op=0x%02x err=%v", tc.name, op, err)
		}
		d := codec.NewDecoder(payload)
		if err := checkStatus(&d); !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("%s: error = %v, want ErrVersionMismatch", tc.name, err)
		}
		if _, _, err := readFrame(raw); err == nil {
			t.Fatalf("%s: server kept the refused connection open", tc.name)
		}
		raw.Close()
	}

	// Client refusal: a server that answers the hello with any other
	// version fails Dial with ErrVersionMismatch.
	for _, v := range []byte{protoVersion - 1, protoVersion + 1} {
		skewed := fakeHelloServer(t, func() []byte { return []byte{statusOK, v} })
		if _, err := Dial(ClientConfig{Addr: skewed}); !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("dial against a server answering v%d = %v, want ErrVersionMismatch", v, err)
		}
	}

	// A hangup on the hello is a dying shard, not a version skew.
	hangup := fakeHelloServer(t, func() []byte { return nil })
	_, err = Dial(ClientConfig{Addr: hangup})
	if !errors.Is(err, session.ErrBackendUnavailable) || errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("dial against a server hanging up on the hello = %v, want ErrBackendUnavailable", err)
	}
}

// TestHelloDefaultsValidated sends raw hellos whose default
// OpenOptions the tracker cannot honour (a negative, NaN or infinite
// Window, a NaN SpuriousPhase) and requires the server to answer each
// with OpenOptions.Validate's error and drop the connection, as it
// refuses the same options on opOpen.
func TestHelloDefaultsValidated(t *testing.T) {
	_, ants := penStreams(t, 1, 61)
	_, addr := startServer(t, ServerConfig{Session: sessionCfg(ants, 0.2, 0)})
	f := func(x float64) *float64 { return &x }
	for _, tc := range []struct {
		name string
		opts session.OpenOptions
	}{
		{"Window -0.1", session.OpenOptions{Window: f(-0.1)}},
		{"Window NaN", session.OpenOptions{Window: f(math.NaN())}},
		{"Window +Inf", session.OpenOptions{Window: f(math.Inf(1))}},
		{"SpuriousPhase NaN", session.OpenOptions{SpuriousPhase: f(math.NaN())}},
	} {
		want := tc.opts.Validate()
		if want == nil {
			t.Fatalf("%s: OpenOptions.Validate accepts it", tc.name)
		}
		var e codec.Encoder
		if encodeHello(&e, protoVersion, "bad-defaults", tc.opts); e.Err() != nil {
			t.Fatal(e.Err())
		}
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		bw := bufio.NewWriter(raw)
		if err := writeFrame(bw, opHello, e.Bytes()); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		raw.SetReadDeadline(time.Now().Add(5 * time.Second))
		op, payload, err := readFrame(raw)
		if err != nil || op != opResp {
			t.Fatalf("%s: op=0x%02x err=%v", tc.name, op, err)
		}
		d := codec.NewDecoder(payload)
		if err := checkStatus(&d); err == nil || err.Error() != want.Error() {
			t.Fatalf("%s: hello answered %v, want %v", tc.name, err, want)
		}
		if _, _, err := readFrame(raw); err == nil {
			t.Fatalf("%s: server kept the refused connection open", tc.name)
		}
		raw.Close()
	}
}

// TestErrorTaxonomyRoundTrip pins errors.Is across the wire for every
// taxonomy sentinel a server can emit.
func TestErrorTaxonomyRoundTrip(t *testing.T) {
	_, ants := penStreams(t, 1, 67)
	cfg := sessionCfg(ants, 0.2, 0)
	cfg.MaxSessions = 1
	srv, addr := startServer(t, ServerConfig{Session: cfg})
	client, err := Dial(ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}

	// ErrUnknownEPC (and its deprecated alias).
	if _, err := client.Finalize(ctx, "nobody"); !errors.Is(err, session.ErrUnknownEPC) {
		t.Fatalf("unknown EPC: %v", err)
	}
	if _, err := client.Finalize(ctx, "nobody"); !errors.Is(err, session.ErrUnknownEPC) {
		t.Fatalf("unknown EPC via deprecated alias: %v", err)
	}

	// ErrSessionLimit: the cap of 1 rejects a second explicit Open.
	if err := client.Open(ctx, "pen-1", session.OpenOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := client.Open(ctx, "pen-2", session.OpenOptions{}); !errors.Is(err, session.ErrSessionLimit) {
		t.Fatalf("open past cap: %v, want ErrSessionLimit", err)
	}

	// ErrTooFewSamples: finalizing the freshly opened (empty) session.
	if _, err := client.Finalize(ctx, "pen-1"); !errors.Is(err, core.ErrTooFewSamples) {
		t.Fatalf("empty finalize: %v, want ErrTooFewSamples", err)
	}

	// ErrClosed: requests after the manager closed server-side.
	srv.Manager().Close()
	if err := client.Open(ctx, "pen-3", session.OpenOptions{}); !errors.Is(err, session.ErrClosed) {
		t.Fatalf("open after server close: %v, want ErrClosed", err)
	}

	// ErrBackendUnavailable: transport-level failure (server gone).
	srv.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := client.Ping(ctx)
		if errors.Is(err, session.ErrBackendUnavailable) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ping against dead server: %v, want ErrBackendUnavailable", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	client.Close(ctx)
}

// TestOpenOptionsRemoteLocalBitEquivalence is the acceptance test for
// per-session decode options: the same options opened over the wire
// and in process, fed the same stream, must produce bit-identical
// Results — and those results must differ from the backend-default
// decode, proving the options actually took effect remotely.
func TestOpenOptionsRemoteLocalBitEquivalence(t *testing.T) {
	const pens = 3
	samples, ants := penStreams(t, pens, 71)
	perEPC := reader.SplitByEPC(samples)

	// Server/local defaults: unbounded decode. Per-session options pick
	// an aggressively different operating point so the decode visibly
	// changes.
	base := sessionCfg(ants, 0.2, 0)
	topK, lag, window := 48, 8, 0.25
	opts := session.OpenOptions{BeamTopK: &topK, CommitLag: &lag, Window: &window}

	local := session.NewLocalBackend(base, nil)
	localDefault := session.NewLocalBackend(base, nil)
	_, addr := startServer(t, ServerConfig{Session: base})
	client, err := Dial(ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}

	for epc := range perEPC {
		if err := local.Open(ctx, epc, opts); err != nil {
			t.Fatal(err)
		}
		if err := client.Open(ctx, epc, opts); err != nil {
			t.Fatal(err)
		}
		// localDefault gets no Open: backend defaults.
	}
	for _, b := range []session.ShardBackend{local, localDefault, client} {
		if err := b.DispatchBatch(ctx, samples); err != nil {
			t.Fatal(err)
		}
	}

	want, err := local.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantDefault, err := localDefault.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != pens || len(want) != pens {
		t.Fatalf("decoded local=%d remote=%d pens, want %d", len(want), len(got), pens)
	}
	differs := false
	for epc, w := range want {
		g, ok := got[epc]
		if !ok {
			t.Fatalf("remote missing EPC %s", epc)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("EPC %s: remote decode with options diverged from local", epc)
		}
		if !reflect.DeepEqual(w, wantDefault[epc]) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("options changed nothing: default and optioned decodes identical for every pen (test has no teeth)")
	}
}

// TestRemoteSubscribeUnifiedStream checks the event push: a client
// subscription receives the same kinds a local subscription does —
// WindowClose/Point pairs, Commits, Evicts — with per-EPC payloads
// prefix-identical to the server side's own subscription.
func TestRemoteSubscribeUnifiedStream(t *testing.T) {
	const pens = 2
	samples, ants := penStreams(t, pens, 73)

	cfg := sessionCfg(ants, 0.25, 8)
	srv, addr := startServer(t, ServerConfig{Session: cfg})
	client, err := Dial(ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}

	type eventSink struct {
		mu  sync.Mutex
		evs []session.Event
	}
	run := func(ch <-chan session.Event) (*eventSink, chan struct{}) {
		s := &eventSink{}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for ev := range ch {
				s.mu.Lock()
				s.evs = append(s.evs, ev)
				s.mu.Unlock()
			}
		}()
		return s, done
	}
	pensWithPoints := func(s *eventSink) int {
		s.mu.Lock()
		defer s.mu.Unlock()
		seen := map[string]bool{}
		for _, ev := range s.evs {
			if ev.Kind == session.EventPoint {
				seen[ev.EPC] = true
			}
		}
		return len(seen)
	}
	kindCount := func(s *eventSink, k session.EventKind) int {
		s.mu.Lock()
		defer s.mu.Unlock()
		n := 0
		for _, ev := range s.evs {
			if ev.Kind == k {
				n++
			}
		}
		return n
	}

	srvCh, srvCancel := srv.Manager().Subscribe(context.Background())
	srvSink, srvDone := run(srvCh)
	cliCh, cliCancel := client.Subscribe(context.Background())
	cliSink, cliDone := run(cliCh)

	if err := client.DispatchBatch(ctx, samples); err != nil {
		t.Fatal(err)
	}
	if err := client.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// Wait for live events (points from every pen, at least one commit
	// — guaranteed eventually by the lag bound) BEFORE closing: the
	// close teardown stops event delivery.
	deadline := time.Now().Add(10 * time.Second)
	for pensWithPoints(cliSink) < pens || kindCount(cliSink, session.EventCommit) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("streaming events incomplete: %d pens with points, %d commits",
				pensWithPoints(cliSink), kindCount(cliSink, session.EventCommit))
		}
		time.Sleep(5 * time.Millisecond)
	}
	// An explicit Finalize makes at least one Evict event observable
	// deterministically (evicts emitted during Close race the client's
	// own teardown).
	probe := samples[0].EPC
	if _, err := client.Finalize(ctx, probe); err != nil {
		t.Fatal(err)
	}
	for kindCount(cliSink, session.EventEvict) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no Evict event after explicit Finalize")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := client.Close(ctx); err != nil {
		t.Fatal(err)
	}
	cliCancel()
	<-cliDone
	srvCancel()
	<-srvDone
	srvEvents, cliEvents := srvSink.evs, cliSink.evs

	// Per EPC and kind, the remote stream must be a prefix of the
	// server-side stream (events racing the close may be cut off; the
	// server sheds at full queues only, and we check that).
	if srv.EventsDropped() > 0 {
		t.Logf("note: %d events shed at the subscriber queue", srv.EventsDropped())
	}
	key := func(ev session.Event) string { return ev.EPC + "/" + ev.Kind.String() }
	srvBy := map[string][]session.Event{}
	for _, ev := range srvEvents {
		srvBy[key(ev)] = append(srvBy[key(ev)], ev)
	}
	cliBy := map[string][]session.Event{}
	kinds := map[session.EventKind]int{}
	for _, ev := range cliEvents {
		cliBy[key(ev)] = append(cliBy[key(ev)], ev)
		kinds[ev.Kind]++
	}
	if kinds[session.EventPoint] == 0 || kinds[session.EventWindowClose] == 0 {
		t.Fatalf("remote stream missing streaming kinds: %v", kinds)
	}
	if kinds[session.EventCommit] == 0 {
		t.Fatalf("remote stream carried no Commit events despite CommitLag: %v", kinds)
	}
	if kinds[session.EventEvict] == 0 {
		t.Fatalf("remote stream carried no Evict events across Close: %v", kinds)
	}
	for k, evs := range cliBy {
		want := srvBy[k]
		if len(evs) > len(want) {
			t.Fatalf("%s: more remote events (%d) than server-side (%d)", k, len(evs), len(want))
		}
		if srv.EventsDropped() > 0 {
			continue // prefix property doesn't survive shedding
		}
		for i, ev := range evs {
			w := want[i]
			// Err values cross the wire as reconstructed sentinels;
			// compare their errors.Is identity, not pointers.
			if (ev.Err == nil) != (w.Err == nil) || (ev.Err != nil && !errors.Is(w.Err, ev.Err) && !errors.Is(ev.Err, w.Err)) {
				t.Fatalf("%s[%d]: err mismatch: %v vs %v", k, i, ev.Err, w.Err)
			}
			ev.Err, w.Err = nil, nil
			// Results cross as separate allocations; compare values.
			if (ev.Result == nil) != (w.Result == nil) {
				t.Fatalf("%s[%d]: result presence mismatch", k, i)
			}
			if ev.Result != nil && !reflect.DeepEqual(ev.Result, w.Result) {
				t.Fatalf("%s[%d]: result payload diverged across the wire", k, i)
			}
			ev.Result, w.Result = nil, nil
			if !reflect.DeepEqual(ev, w) {
				t.Fatalf("%s[%d]: payload diverged:\nremote: %+v\nlocal:  %+v", k, i, ev, w)
			}
		}
	}
}

// TestDeadRemoteDeadline is the acceptance test for context-aware
// remote calls: a Dispatch-then-Finalize against a server that
// accepted the connection (and completed the handshake) but never
// answers must return context.DeadlineExceeded promptly instead of
// hanging until CallTimeout.
func TestDeadRemoteDeadline(t *testing.T) {
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
			go func(c net.Conn) {
				// Answer the handshake correctly, then go silent,
				// swallowing every request like a wedged server.
				br := bufio.NewReader(c)
				if _, _, err := readFrame(br); err != nil {
					return
				}
				var e codec.Encoder
				e.U8(statusOK)
				e.U8(protoVersion)
				bw := bufio.NewWriter(c)
				writeFrame(bw, opResp, e.Bytes())
				bw.Flush()
				for {
					if _, _, err := readFrame(br); err != nil {
						c.Close()
						return
					}
				}
			}(c)
		}
	}()

	client, err := Dial(ClientConfig{Addr: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Dispatch(ctx, reader.Sample{EPC: "pen-1"}); err != nil {
		t.Fatal(err) // buffered one-way: must not block
	}

	dctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = client.Finalize(dctx, "pen-1")
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Finalize against silent server = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("Finalize took %v to honour a 150ms deadline", elapsed)
	}

	// The same promptness for a blocked Stats, via cancellation.
	cctx, ccancel := context.WithCancel(context.Background())
	go func() { time.Sleep(50 * time.Millisecond); ccancel() }()
	if _, err := client.Stats(cctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Stats under cancellation = %v, want context.Canceled", err)
	}
	client.Close(dctx)
}

// TestProtoOpenOptionsRoundTrip checks the options codec over awkward
// values: explicit zeroes stay distinct from absent fields.
func TestProtoOpenOptionsRoundTrip(t *testing.T) {
	zero, k, lag := 0, 192, 64
	adaptive := true
	window, spur := 0.3, 0.15
	cases := []session.OpenOptions{
		{},
		{BeamTopK: &zero},
		{BeamTopK: &k, CommitLag: &lag},
		{BeamTopK: &k, CommitLag: &zero, BeamAdaptive: &adaptive, Window: &window, SpuriousPhase: &spur},
	}
	for i, o := range cases {
		var e codec.Encoder
		session.EncodeOpenOptions(&e, o)
		d := codec.NewDecoder(e.Bytes())
		got := session.DecodeOpenOptions(&d)
		if d.Err() != nil || d.Remaining() != 0 {
			t.Fatalf("case %d: err=%v remaining=%d", i, d.Err(), d.Remaining())
		}
		if !reflect.DeepEqual(got, o) {
			t.Fatalf("case %d: round-trip %+v != %+v", i, got, o)
		}
	}
	// Truncations latch an error, never fabricate options.
	full := cases[3]
	var e codec.Encoder
	session.EncodeOpenOptions(&e, full)
	for cut := 0; cut < len(e.Bytes()); cut++ {
		d := codec.NewDecoder(e.Bytes()[:cut])
		session.DecodeOpenOptions(&d)
		if d.Err() == nil {
			t.Fatalf("truncation at %d undetected", cut)
		}
	}
}

// flakyProxy forwards TCP between the client and a real server and can
// kill every live connection, simulating a transport failure that
// leaves the server's state intact. Armed with hangUpNextHello, it
// instead reads the next connection's first frame and hangs up, the
// way a shard dying mid-handshake does.
type flakyProxy struct {
	ln      net.Listener
	target  string
	hungUp  chan struct{} // one send per hello hung up on
	mu      sync.Mutex
	conns   []net.Conn
	hangups int
}

func newFlakyProxy(t *testing.T, target string) *flakyProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flakyProxy{ln: ln, target: target, hungUp: make(chan struct{}, 1)}
	go p.run()
	t.Cleanup(func() { p.ln.Close(); p.killConns() })
	return p
}

func (p *flakyProxy) addr() string { return p.ln.Addr().String() }

func (p *flakyProxy) run() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		hangup := p.hangups > 0
		if hangup {
			p.hangups--
		}
		p.mu.Unlock()
		if hangup {
			go func() {
				readFrame(c)
				c.Close()
				p.hungUp <- struct{}{}
			}()
			continue
		}
		s, err := net.Dial("tcp", p.target)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, c, s)
		p.mu.Unlock()
		go func() { io.Copy(s, c); s.Close() }()
		go func() { io.Copy(c, s); c.Close() }()
	}
}

// hangUpNextHello arms the proxy to hang up on the next connection
// right after its first frame (the client's hello).
func (p *flakyProxy) hangUpNextHello() {
	p.mu.Lock()
	p.hangups++
	p.mu.Unlock()
}

// killConns severs every in-flight connection; the proxy keeps
// accepting, so redials go through.
func (p *flakyProxy) killConns() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

// TestSeqResendAfterReconnect is the acceptance test for satellite #1:
// a transport failure mid-stream must not lose the buffered or
// in-flight samples — the client resends the unacknowledged tail after
// its automatic reconnect, the server deduplicates by sequence, and
// the decode stays bit-identical to an uninterrupted local run with
// Lost — which now means gone-for-good — at zero.
func TestSeqResendAfterReconnect(t *testing.T) {
	const pens = 3
	samples, ants := penStreams(t, pens, 83)
	const window, lag = 0.2, 16

	local := session.NewLocalBackend(sessionCfg(ants, window, lag), nil)
	if err := local.DispatchBatch(ctx, samples); err != nil {
		t.Fatal(err)
	}
	want, err := local.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}

	_, addr := startServer(t, ServerConfig{Session: sessionCfg(ants, window, lag)})
	proxy := newFlakyProxy(t, addr)
	client, err := Dial(ClientConfig{
		Addr:          proxy.addr(),
		BatchSize:     16,
		RedialBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// First half, then a transport failure, then the rest. Dispatch
	// errors during the outage are delivery delays — the
	// samples stay buffered — so only the final flush must succeed.
	half := len(samples) / 2
	if err := client.DispatchBatch(ctx, samples[:half]); err != nil {
		t.Fatal(err)
	}
	_ = client.Flush(ctx)
	proxy.killConns()
	for _, smp := range samples[half:] {
		_ = client.Dispatch(ctx, smp)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := client.Flush(ctx); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flush never recovered after the transport failure")
		}
		time.Sleep(5 * time.Millisecond)
	}

	got, err := client.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d pens remotely, want %d", len(got), len(want))
	}
	for epc, w := range want {
		if !reflect.DeepEqual(got[epc], w) {
			t.Fatalf("EPC %s: decode across a reconnect diverged from the uninterrupted local run", epc)
		}
	}
	if lost := client.Lost(); lost != 0 {
		t.Fatalf("Lost = %d across a transport failure with resend", lost)
	}
	if client.Reconnects() == 0 {
		t.Fatal("no reconnect recorded: the test never exercised the failure path")
	}
}

// TestHangupOnHelloKeepsSamples is the regression test for a shard
// that hangs up mid-handshake while samples are buffered: the proxy
// drops the first hello after a reconnect. The hangup must surface as
// ErrBackendUnavailable, never as a version skew that downgrades the
// link, and once the shard answers again every buffered sample is
// delivered exactly once: Lost stays zero, Export works, and the
// server counted each sample once.
func TestHangupOnHelloKeepsSamples(t *testing.T) {
	samples, ants := penStreams(t, 1, 89)
	epc := samples[0].EPC
	_, addr := startServer(t, ServerConfig{Session: sessionCfg(ants, 0.2, 8)})
	proxy := newFlakyProxy(t, addr)
	client, err := Dial(ClientConfig{
		Addr:      proxy.addr(),
		BatchSize: 16,
		// Long enough that the failed redial's error is still the
		// cached answer when the test asks for it below.
		RedialBackoff: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Detach()

	half := len(samples) / 2
	if err := client.DispatchBatch(ctx, samples[:half]); err != nil {
		t.Fatal(err)
	}
	if err := client.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	proxy.hangUpNextHello()
	proxy.killConns()
	for _, smp := range samples[half:] {
		_ = client.Dispatch(ctx, smp) // outage: buffered, errors are delays
	}
	select {
	case <-proxy.hungUp:
	case <-time.After(10 * time.Second):
		t.Fatal("the client never redialed into the hangup")
	}
	// The redial that met the hangup ran under the client lock, so
	// this flush sees its outcome.
	err = client.Flush(ctx)
	if !errors.Is(err, session.ErrBackendUnavailable) || errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("flush after a hangup on the hello = %v, want ErrBackendUnavailable", err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for client.Flush(ctx) != nil {
		if time.Now().After(deadline) {
			t.Fatal("flush never recovered after the hangup")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if lost := client.Lost(); lost != 0 {
		t.Fatalf("Lost = %d of %d samples across a hangup on the hello", lost, len(samples))
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != 1 || st[0].EPC != epc || st[0].Received != uint64(len(samples)) {
		t.Fatalf("server stats %+v, want %s with %d samples received once", st, epc, len(samples))
	}
	if _, err := client.Export(ctx, epc); err != nil {
		t.Fatalf("Export after the hangup: %v", err)
	}
}

// dialRaw performs a raw handshake with an explicit client identity,
// returning the conn and its buffered writer.
func dialRaw(t *testing.T, addr, clientID string) (net.Conn, *bufio.Writer) {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(raw)
	if err := writeFrame(bw, opHello, helloPayload(t, protoVersion, clientID)); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	op, payload, err := readFrame(raw)
	if err != nil || op != opResp {
		t.Fatalf("hello: op=0x%02x err=%v", op, err)
	}
	d := codec.NewDecoder(payload)
	if err := checkStatus(&d); err != nil {
		t.Fatal(err)
	}
	if v := d.U8(); v != protoVersion {
		t.Fatalf("server answered v%d, want v%d", v, protoVersion)
	}
	return raw, bw
}

// readAck reads frames until an opAck arrives and decodes it.
func readAck(t *testing.T, conn net.Conn) (acked, rejected uint64) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		op, payload, err := readFrame(conn)
		if err != nil {
			t.Fatalf("waiting for ack: %v", err)
		}
		if op != opAck {
			continue
		}
		d := codec.NewDecoder(payload)
		acked, rejected = d.U64(), d.U64()
		if d.Err() != nil {
			t.Fatal(d.Err())
		}
		return acked, rejected
	}
}

// TestSeqDedupIdempotence pins the server-side replay contract at the
// wire level: the same opDispatchSeq frame delivered twice — on the
// same connection or on a fresh one with the same client identity —
// applies every sample exactly once.
func TestSeqDedupIdempotence(t *testing.T) {
	_, ants := penStreams(t, 1, 89)
	srv, addr := startServer(t, ServerConfig{Session: sessionCfg(ants, 0.2, 0)})

	const n = 5
	batch := make([]reader.Sample, n)
	for i := range batch {
		batch[i] = reader.Sample{EPC: "pen-dup", T: float64(i) * 0.01, RSS: -60}
	}
	var df codec.Encoder
	df.U64(1) // first sequence number
	encodeSamples(&df, batch)
	frame := df.Bytes()

	conn, bw := dialRaw(t, addr, "dup-client")
	defer conn.Close()
	send := func(c net.Conn, w *bufio.Writer) (uint64, uint64) {
		t.Helper()
		if err := writeFrame(w, opDispatchSeq, frame); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		return readAck(t, c)
	}

	received := func() uint64 {
		for _, st := range srv.Manager().Stats() {
			if st.EPC == "pen-dup" {
				return st.Received
			}
		}
		return 0
	}

	if acked, rejected := send(conn, bw); acked != n || rejected != 0 {
		t.Fatalf("first frame: acked=%d rejected=%d, want %d/0", acked, rejected, n)
	}
	if got := received(); got != n {
		t.Fatalf("received %d samples after first frame, want %d", got, n)
	}
	// Same frame again on the same connection: acknowledged, not
	// re-applied.
	if acked, rejected := send(conn, bw); acked != n || rejected != 0 {
		t.Fatalf("duplicate frame: acked=%d rejected=%d, want %d/0", acked, rejected, n)
	}
	if got := received(); got != n {
		t.Fatalf("received %d samples after duplicate, want %d — dedup failed", got, n)
	}

	// A reconnect with the same identity (exactly what the client's
	// resend path does) keeps the sequence state.
	conn.Close()
	conn2, bw2 := dialRaw(t, addr, "dup-client")
	defer conn2.Close()
	if acked, rejected := send(conn2, bw2); acked != n || rejected != 0 {
		t.Fatalf("resend after reconnect: acked=%d rejected=%d, want %d/0", acked, rejected, n)
	}
	if got := received(); got != n {
		t.Fatalf("received %d samples after reconnect resend, want %d", got, n)
	}
}

// TestAckRejectedCountsLost: samples the server's manager refuses are
// acknowledged as rejected and surface in the client's Lost — they are
// gone for good, unlike transport-delayed ones.
func TestAckRejectedCountsLost(t *testing.T) {
	_, ants := penStreams(t, 1, 97)
	srv, addr := startServer(t, ServerConfig{Session: sessionCfg(ants, 0.2, 0)})
	client, err := Dial(ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close(ctx)

	// Close the manager under the live server: every dispatch now
	// fails server-side.
	srv.Manager().Close()
	const n = 7
	for i := 0; i < n; i++ {
		if err := client.Dispatch(ctx, reader.Sample{EPC: "pen-x", T: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for client.Lost() != n {
		if time.Now().After(deadline) {
			t.Fatalf("Lost = %d, want %d rejected samples", client.Lost(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestResubscribeCatchUpCommits is the acceptance test for satellite
// #2: a subscription that dies with its connection is re-armed on
// reconnect, and the server's catch-up commit (the full committed
// prefix from index 0) closes any EventCommit gap opened during the
// outage — a consumer mirroring the trajectory from commit events
// reconstructs the server's committed prefix exactly.
func TestResubscribeCatchUpCommits(t *testing.T) {
	samples, ants := penStreams(t, 1, 101)
	epc := samples[0].EPC

	srv, addr := startServer(t, ServerConfig{Session: sessionCfg(ants, 0.2, 2)})
	proxy := newFlakyProxy(t, addr)
	client, err := Dial(ClientConfig{
		Addr:          proxy.addr(),
		BatchSize:     16,
		RedialBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Mirror the committed prefix from commit events, by absolute
	// index: overlapping segments (live commits vs the catch-up replay)
	// are idempotent.
	var mu sync.Mutex
	mirror := map[int]geom.Vec2{}
	covered := func() int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for {
			if _, ok := mirror[n]; !ok {
				return n
			}
			n++
		}
	}
	ch, cancel := client.Subscribe(context.Background())
	defer cancel()
	go func() {
		for ev := range ch {
			if ev.Kind != session.EventCommit || ev.EPC != epc {
				continue
			}
			mu.Lock()
			for k, pt := range ev.Segment {
				mirror[int(ev.CommitStart)+k] = pt
			}
			mu.Unlock()
		}
	}()

	// Stream the first chunk and wait for live commits to flow.
	third := len(samples) * 2 / 3
	if err := client.DispatchBatch(ctx, samples[:third]); err != nil {
		t.Fatal(err)
	}
	_ = client.Flush(ctx)
	deadline := time.Now().Add(10 * time.Second)
	for covered() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no commits before the outage")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Sever the transport. Commits fired while the subscription is down
	// are gone from the push stream; the catch-up on resubscribe must
	// repair the gap.
	proxy.killConns()
	for _, smp := range samples[third:] {
		_ = client.Dispatch(ctx, smp)
	}
	for {
		if err := client.Flush(ctx); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flush never recovered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if client.Reconnects() == 0 {
		t.Fatal("no reconnect: the outage never happened")
	}

	// The mirror must converge on the server's committed prefix with no
	// gap: every index below the server's commit watermark present and
	// bit-identical.
	for {
		prefix := srv.Manager().CommittedPrefixes()[epc]
		if len(prefix) > 0 {
			mu.Lock()
			ok := true
			for i, want := range prefix {
				if got, present := mirror[i]; !present || got != want {
					ok = false
					break
				}
			}
			mu.Unlock()
			if ok && covered() >= len(prefix) {
				return
			}
		}
		if time.Now().After(deadline) {
			prefix := srv.Manager().CommittedPrefixes()[epc]
			t.Fatalf("commit mirror never converged: %d/%d indices covered gaplessly",
				covered(), len(prefix))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMembershipCodecRoundTrip pins the membership wire form:
// epoch, member list (name, addr, state) survive encode/decode
// exactly, oversized tables are rejected at encode time, and hostile
// member counts are rejected before allocation at decode time.
func TestMembershipCodecRoundTrip(t *testing.T) {
	m := session.Membership{
		Epoch: 42,
		Members: []session.Member{
			{Name: "shard-a", Addr: "10.0.0.1:7001", State: session.StateActive},
			{Name: "shard-b", Addr: "10.0.0.2:7001", State: session.StateDraining},
			{Name: "shard-c", Addr: "", State: session.StateSpare},
		},
	}
	var e codec.Encoder
	if encodeMembership(&e, m); e.Err() != nil {
		t.Fatalf("encode: %v", e.Err())
	}
	got := decodeMembership(decoderOf(e.Bytes()))
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}

	// Oversized tables refuse to encode rather than truncating the u16.
	var big codec.Encoder
	encodeMembership(&big, session.Membership{
		Epoch:   1,
		Members: make([]session.Member, 0x10000),
	})
	if big.Err() == nil {
		t.Fatal("encoding 65536 members succeeded, want error")
	}

	// A hostile count with no backing bytes must fail decode, not
	// allocate.
	var h codec.Encoder
	h.U64(7)
	h.U16(0xffff)
	d := decoderOf(h.Bytes())
	if got := decodeMembership(d); d.Err() == nil || len(got.Members) != 0 {
		t.Fatalf("hostile count decoded to %+v (err %v), want error", got, d.Err())
	}
}

// TestMembershipEventRoundTrip checks EventMembership through the
// unified event codec used for the membership push.
func TestMembershipEventRoundTrip(t *testing.T) {
	ev := session.Event{
		Kind:  session.EventMembership,
		Epoch: 9,
		Members: []session.Member{
			{Name: "shard-a", Addr: "h:1", State: session.StateActive},
			{Name: "shard-b", Addr: "h:2", State: session.StateDraining},
		},
	}
	var e codec.Encoder
	if encodeEvent(&e, ev); e.Err() != nil {
		t.Fatalf("encode: %v", e.Err())
	}
	got := decodeEvent(decoderOf(e.Bytes()))
	if !reflect.DeepEqual(got, ev) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, ev)
	}
}

// TestV4ErrorCodesRoundTrip extends the error taxonomy check to the
// admission and membership sentinels: admission sheds and stale membership
// epochs must survive the wire as errors.Is-able values.
func TestV4ErrorCodesRoundTrip(t *testing.T) {
	for _, sentinel := range []error{session.ErrOverloaded, session.ErrStaleEpoch} {
		var e codec.Encoder
		encodeStatus(&e, sentinel)
		d := decoderOf(e.Bytes())
		if st := d.U8(); st != statusErr {
			t.Fatalf("status byte %d, want statusErr", st)
		}
		err := decodeError(d)
		if !errors.Is(err, sentinel) {
			t.Fatalf("decoded %v does not wrap %v", err, sentinel)
		}
	}
}

func waitForMembership(t *testing.T, evs <-chan Event) Event {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev, ok := <-evs:
			if !ok {
				t.Fatal("event stream closed before a membership push arrived")
			}
			if ev.Kind == session.EventMembership {
				return ev
			}
		case <-deadline:
			t.Fatal("timed out waiting for a membership push")
		}
	}
}

// TestMembershipPushStaleAndCatchUp is the membership e2e: a SetMembership
// from one client fans out to every subscribed client on the same
// shard, stale epochs are rejected with the typed sentinel, and a
// late subscriber catches up with the stored table immediately.
func TestMembershipPushStaleAndCatchUp(t *testing.T) {
	_, ants := penStreams(t, 1, 9)
	srv, addr := startServer(t, ServerConfig{Session: sessionCfg(ants, 0, 0)})

	a, err := Dial(ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Detach()
	b, err := Dial(ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Detach()

	evs, cancel := b.Subscribe(ctx)
	defer cancel()

	m1 := session.Membership{
		Epoch: 1,
		Members: []session.Member{
			{Name: "shard-0", Addr: addr, State: session.StateActive},
			{Name: "shard-1", Addr: "10.0.0.2:7001", State: session.StateDraining},
		},
	}
	if err := a.SetMembership(ctx, m1); err != nil {
		t.Fatalf("set membership: %v", err)
	}

	ev := waitForMembership(t, evs)
	if ev.Epoch != 1 || !reflect.DeepEqual(ev.Members, m1.Members) {
		t.Fatalf("pushed membership %+v, want epoch 1 with %+v", ev, m1.Members)
	}
	if got, ok := srv.Membership(); !ok || got.Epoch != 1 {
		t.Fatalf("server stored %+v (ok=%v), want epoch 1", got, ok)
	}

	// Replaying the same epoch — or anything older — is rejected with
	// the typed sentinel and leaves the table untouched.
	if err := a.SetMembership(ctx, m1); !errors.Is(err, session.ErrStaleEpoch) {
		t.Fatalf("stale epoch replay: %v, want ErrStaleEpoch", err)
	}
	if got, _ := srv.Membership(); got.Epoch != 1 {
		t.Fatalf("stale replay moved the epoch to %d", got.Epoch)
	}

	// A client that subscribes after the fact gets the stored table as
	// its first membership event (the subscribe catch-up).
	late, err := Dial(ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer late.Detach()
	lateEvs, lateCancel := late.Subscribe(ctx)
	defer lateCancel()
	if ev := waitForMembership(t, lateEvs); ev.Epoch != 1 || len(ev.Members) != 2 {
		t.Fatalf("late subscriber caught up with %+v, want epoch 1, 2 members", ev)
	}
}

// TestClientRedialBackoffSchedule drives ensureConnLocked with a
// scripted dialer and pins the jittered exponential schedule: the
// base gap doubles per consecutive failure up to the cap, each wait
// is a uniform point in [gap/2, gap], attempts inside the window are
// answered from the cached error without dialing, and one success
// resets the whole ladder.
func TestClientRedialBackoffSchedule(t *testing.T) {
	_, ants := penStreams(t, 1, 7)
	_, addr := startServer(t, ServerConfig{Session: sessionCfg(ants, 0, 0)})

	var down atomic.Bool
	var dials atomic.Int32
	injected := errors.New("injected dial failure")
	cl, err := Dial(ClientConfig{
		Addr:             addr,
		RedialBackoff:    10 * time.Millisecond,
		RedialBackoffMax: 80 * time.Millisecond,
		Dialer: func(a string, timeout time.Duration) (net.Conn, error) {
			dials.Add(1)
			if down.Load() {
				return nil, injected
			}
			return net.DialTimeout("tcp", a, timeout)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Detach()

	down.Store(true)
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.teardownLocked(cl.gen, errors.New("test: connection lost"))

	want := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		80 * time.Millisecond,
		80 * time.Millisecond, // capped
	}
	for i, w := range want {
		cl.redialAt = time.Time{} // force a real attempt now
		err := cl.ensureConnLocked()
		if err == nil || !errors.Is(err, session.ErrBackendUnavailable) ||
			!strings.Contains(err.Error(), injected.Error()) {
			t.Fatalf("attempt %d: %v, want injected dial failure", i, err)
		}
		if cl.redialWait != w {
			t.Fatalf("attempt %d: backoff gap %v, want %v", i, cl.redialWait, w)
		}
		gap := time.Until(cl.redialAt)
		if gap > w || gap < w/2-2*time.Millisecond {
			t.Fatalf("attempt %d: jittered wait %v outside [%v, %v]", i, gap, w/2, w)
		}
	}

	// Inside the window the cached error comes back without a dial.
	before := dials.Load()
	if err := cl.ensureConnLocked(); err == nil ||
		!strings.Contains(err.Error(), injected.Error()) {
		t.Fatalf("gated attempt: %v, want cached injected failure", err)
	}
	if dials.Load() != before {
		t.Fatalf("attempt inside the backoff window dialed anyway")
	}

	// One success resets the ladder.
	down.Store(false)
	cl.redialAt = time.Time{}
	if err := cl.ensureConnLocked(); err != nil {
		t.Fatalf("recovery dial: %v", err)
	}
	if cl.redialWait != 0 || cl.lastDialErr != nil || !cl.redialAt.IsZero() {
		t.Fatalf("backoff state not reset after success: wait=%v err=%v at=%v",
			cl.redialWait, cl.lastDialErr, cl.redialAt)
	}
}

// TestSubscribeOptionsCodecRoundTrip pins the filter wire form:
// kind and EPC allow-lists survive encode/decode exactly, and hostile
// counts are rejected before allocation.
func TestSubscribeOptionsCodecRoundTrip(t *testing.T) {
	o := session.SubscribeOptions{
		Kinds: []session.EventKind{session.EventCommit, session.EventEvict},
		EPCs:  []string{"pen-1", "pen-2"},
	}
	var e codec.Encoder
	if encodeSubscribeOptions(&e, o); e.Err() != nil {
		t.Fatalf("encode: %v", e.Err())
	}
	got := decodeSubscribeOptions(decoderOf(e.Bytes()))
	if !reflect.DeepEqual(got, o) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, o)
	}

	// The zero filter encodes and decodes back to zero (subscribe to
	// everything).
	var ze codec.Encoder
	encodeSubscribeOptions(&ze, session.SubscribeOptions{})
	if got := decodeSubscribeOptions(decoderOf(ze.Bytes())); !got.IsZero() {
		t.Fatalf("zero filter round-tripped to %+v", got)
	}

	// A hostile EPC count with no backing bytes must fail decode, not
	// allocate.
	var h codec.Encoder
	h.U16(0)      // no kinds
	h.U16(0xffff) // claimed EPCs, no bytes
	d := decoderOf(h.Bytes())
	if got := decodeSubscribeOptions(d); d.Err() == nil || len(got.EPCs) != 0 {
		t.Fatalf("hostile count decoded to %+v (err %v), want error", got, d.Err())
	}
}

// TestTelemetryCodecRoundTrip pins the snapshot wire form: counters,
// gauges, and sparse-encoded histograms survive encode/decode exactly,
// and hostile section counts fail before allocation.
func TestTelemetryCodecRoundTrip(t *testing.T) {
	r := telemetry.NewRegistry()
	r.Counter("polardraw_router_sheds_total").Add(7)
	r.Gauge("polardraw_session_queue_depth").Set(3.5)
	h := r.Histogram("polardraw_journal_append_seconds")
	for _, x := range []float64{0.0001, 0.002, 0.002, 1.5} {
		h.Observe(x)
	}
	want := r.Snapshot()

	var e codec.Encoder
	encodeTelemetry(&e, want)
	got := decodeTelemetry(decoderOf(e.Bytes()))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}

	// An empty snapshot round-trips to empty maps, not nils.
	var ee codec.Encoder
	encodeTelemetry(&ee, telemetry.Snapshot{})
	if got := decodeTelemetry(decoderOf(ee.Bytes())); len(got.Counters) != 0 ||
		len(got.Gauges) != 0 || len(got.Histograms) != 0 ||
		got.Counters == nil || got.Gauges == nil || got.Histograms == nil {
		t.Fatalf("empty snapshot round-tripped to %+v", got)
	}

	// Hostile histogram count with no backing bytes.
	var hb codec.Encoder
	hb.U32(0)          // counters
	hb.U32(0)          // gauges
	hb.U32(0xffffffff) // claimed histograms, no bytes
	d := decoderOf(hb.Bytes())
	if got := decodeTelemetry(d); d.Err() == nil || len(got.Histograms) != 0 {
		t.Fatalf("hostile count decoded to %+v (err %v), want error", got, d.Err())
	}
}

// TestTelemetryRPC is the stats path e2e: a server wired to a
// registry serves its snapshot over opTelemetry, including decode-layer
// histograms recorded by the session tier and the server's own RPC
// frame metrics.
func TestTelemetryRPC(t *testing.T) {
	samples, ants := penStreams(t, 2, 17)
	reg := telemetry.NewRegistry()
	cfg := sessionCfg(ants, 0.2, 8)
	cfg.Telemetry = reg
	_, addr := startServer(t, ServerConfig{Session: cfg, Telemetry: reg})

	cl, err := Dial(ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Detach()

	if err := cl.DispatchBatch(ctx, samples); err != nil {
		t.Fatal(err)
	}

	// Decode runs asynchronously behind the dispatch queue: poll the
	// RPC until the decode-layer histogram shows closed windows.
	var s telemetry.Snapshot
	deadline := time.Now().Add(10 * time.Second)
	for {
		if s, err = cl.Telemetry(ctx); err != nil {
			t.Fatalf("telemetry RPC: %v", err)
		}
		if s.Histograms["polardraw_decode_window_close_seconds"].Count > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("decode window-close histogram never filled: %+v", s.Histograms)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if h, ok := s.Histograms["polardraw_rpc_batch_samples"]; !ok || h.Count == 0 {
		t.Fatalf("rpc batch histogram missing or empty: %+v", s.Histograms)
	}
	if h, ok := s.Histograms[`polardraw_rpc_frame_bytes{dir="rx"}`]; !ok || h.Count == 0 {
		t.Fatalf("rpc rx frame histogram missing or empty: %+v", s.Histograms)
	}
}

// TestFilteredSubscription is the filter e2e: a subscriber narrowed
// to commit events for one pen receives only those, while an unfiltered
// peer on a second connection to the same shard sees the full stream.
func TestFilteredSubscription(t *testing.T) {
	samples, ants := penStreams(t, 2, 23)
	_, addr := startServer(t, ServerConfig{Session: sessionCfg(ants, 0.2, 4)})

	epcs := map[string]bool{}
	for _, smp := range samples {
		epcs[smp.EPC] = true
	}
	if len(epcs) != 2 {
		t.Fatalf("expected 2 pens, got %d", len(epcs))
	}
	var wantEPC string
	for epc := range epcs {
		if wantEPC == "" || epc < wantEPC {
			wantEPC = epc
		}
	}

	filtered, err := Dial(ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer filtered.Detach()
	peer, err := Dial(ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Detach()

	fevs, fcancel := filtered.SubscribeFiltered(ctx, session.SubscribeOptions{
		Kinds: []session.EventKind{session.EventCommit},
		EPCs:  []string{wantEPC},
	})
	defer fcancel()
	pevs, pcancel := peer.Subscribe(ctx)
	defer pcancel()

	writer, err := Dial(ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Detach()
	if err := writer.DispatchBatch(ctx, samples); err != nil {
		t.Fatal(err)
	}

	// The peer must see several event kinds; the filtered subscriber
	// only commits for its pen. Collect until both have evidence.
	deadline := time.After(10 * time.Second)
	var commits int
	peerKinds := map[session.EventKind]bool{}
	for commits == 0 || !peerKinds[session.EventPoint] || !peerKinds[session.EventCommit] {
		select {
		case ev := <-fevs:
			if ev.Kind != session.EventCommit {
				t.Fatalf("filtered subscriber saw kind %v, want only commits", ev.Kind)
			}
			if ev.EPC != wantEPC {
				t.Fatalf("filtered subscriber saw EPC %q, want only %q", ev.EPC, wantEPC)
			}
			commits++
		case ev := <-pevs:
			peerKinds[ev.Kind] = true
		case <-deadline:
			t.Fatalf("timed out: commits=%d peerKinds=%v", commits, peerKinds)
		}
	}
}

// TestHelloDefaultsEquivalence is the hello-defaults acceptance: decode
// defaults set on the client travel in the handshake and govern
// sessions opened implicitly by Dispatch, bit-identically to a local
// manager fed the same defaults — even though the server's own
// configuration differs.
func TestHelloDefaultsEquivalence(t *testing.T) {
	samples, ants := penStreams(t, 3, 41)
	topk, lag, window := 5, 8, 0.25
	defaults := session.OpenOptions{BeamTopK: &topk, CommitLag: &lag, Window: &window}

	// Server decodes with its own (different) defaults unless the
	// client's pushed options override them.
	_, addr := startServer(t, ServerConfig{Session: sessionCfg(ants, 0, 0)})
	cl, err := Dial(ClientConfig{Addr: addr, Defaults: defaults})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Detach()

	m := session.NewManager(sessionCfg(ants, 0, 0))
	if err := m.DispatchBatchWith(samples, defaults); err != nil {
		t.Fatal(err)
	}
	want := m.Close()

	if err := cl.DispatchBatch(ctx, samples); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("remote decoded %d pens, local %d", len(got), len(want))
	}
	for epc, w := range want {
		g, ok := got[epc]
		if !ok {
			t.Fatalf("remote close missing EPC %s", epc)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("EPC %s: remote decode with hello defaults diverged from local DispatchWith", epc)
		}
	}

	// Sanity: the defaults changed the decode — the same stream through
	// the server's own configuration must differ.
	plain := session.NewManager(sessionCfg(ants, 0, 0))
	if err := plain.DispatchBatchWith(samples, session.OpenOptions{}); err != nil {
		t.Fatal(err)
	}
	base := plain.Close()
	same := true
	for epc, w := range want {
		if !reflect.DeepEqual(base[epc], w) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("hello defaults did not change the decode; equivalence check is vacuous")
	}
}

// transports builds one fresh backend per call for each ShardBackend
// transport: an in-process LocalBackend, the single-process topology (a
// Router over two LocalBackends sharing one tracker), and a shardrpc
// client of its own shard server. TestOrderingContractAcrossTransports
// and TestShardBackendConformance run every assertion on each.
func transports(cfg session.Config) []struct {
	name string
	open func(t *testing.T) session.ShardBackend
} {
	return []struct {
		name string
		open func(t *testing.T) session.ShardBackend
	}{
		{"local", func(t *testing.T) session.ShardBackend {
			return session.NewLocalBackend(cfg, nil)
		}},
		{"router", func(t *testing.T) session.ShardBackend {
			tr := core.New(cfg.Tracker)
			return session.NewRouter([]session.NamedBackend{
				{Name: "shard-0", Backend: session.NewLocalBackend(cfg, tr)},
				{Name: "shard-1", Backend: session.NewLocalBackend(cfg, tr)},
			})
		}},
		{"remote", func(t *testing.T) session.ShardBackend {
			_, addr := startServer(t, ServerConfig{Session: cfg})
			c, err := Dial(ClientConfig{Addr: addr})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
	}
}

// TestOrderingContractAcrossTransports pins the one ordering contract
// of session.ShardBackend on every transport: a call is ordered after
// every Dispatch of its EPC that returned before it. The script
// finalizes straight after DispatchBatch, and moves each pen mid-stroke
// with Export → Restore on a second backend before finalizing there.
// Each pen's result must be DeepEqual to an uninterrupted in-process
// Manager decode, and no backend may keep a session afterwards (a late
// sample would have re-opened one).
func TestOrderingContractAcrossTransports(t *testing.T) {
	const pens = 2
	samples, ants := penStreams(t, pens, 97)
	cfg := sessionCfg(ants, 0.2, 16)
	perEPC := reader.SplitByEPC(samples)

	ref := session.NewManager(cfg)
	if err := ref.DispatchBatch(samples); err != nil {
		t.Fatal(err)
	}
	want := ref.Close()
	if len(want) != pens {
		t.Fatalf("reference decoded %d pens, want %d", len(want), pens)
	}

	requireEmpty := func(t *testing.T, b session.ShardBackend) {
		t.Helper()
		st, err := b.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(st) != 0 {
			t.Fatalf("%d session(s) live after Finalize: %+v", len(st), st)
		}
	}
	closeAll := func(t *testing.T, bs ...session.ShardBackend) {
		t.Helper()
		for _, b := range bs {
			if _, err := b.Close(ctx); err != nil {
				t.Error(err)
			}
		}
	}

	for _, tr := range transports(cfg) {
		t.Run(tr.name+"/dispatch-finalize", func(t *testing.T) {
			b := tr.open(t)
			defer closeAll(t, b)
			if err := b.DispatchBatch(ctx, samples); err != nil {
				t.Fatal(err)
			}
			for epc, w := range want {
				got, err := b.Finalize(ctx, epc)
				if err != nil {
					t.Fatalf("Finalize(%s) straight after DispatchBatch: %v", epc, err)
				}
				if !reflect.DeepEqual(got, w) {
					t.Fatalf("Finalize(%s) diverged from the in-process reference", epc)
				}
			}
			requireEmpty(t, b)
		})
		t.Run(tr.name+"/export-restore-finalize", func(t *testing.T) {
			from, to := tr.open(t), tr.open(t)
			defer closeAll(t, from, to)
			for epc, w := range want {
				stroke := perEPC[epc]
				half := len(stroke) / 2
				if err := from.DispatchBatch(ctx, stroke[:half]); err != nil {
					t.Fatal(err)
				}
				state, err := from.Export(ctx, epc)
				if err != nil {
					t.Fatalf("Export(%s) straight after DispatchBatch: %v", epc, err)
				}
				if err := to.Restore(ctx, epc, state); err != nil {
					t.Fatal(err)
				}
				if err := to.DispatchBatch(ctx, stroke[half:]); err != nil {
					t.Fatal(err)
				}
				got, err := to.Finalize(ctx, epc)
				if err != nil {
					t.Fatalf("Finalize(%s) after Restore: %v", epc, err)
				}
				if !reflect.DeepEqual(got, w) {
					t.Fatalf("Finalize(%s) across Export/Restore diverged from the in-process reference", epc)
				}
			}
			requireEmpty(t, from)
			requireEmpty(t, to)
		})
	}
}

// TestShardBackendConformance runs the rest of the session.ShardBackend
// contract on every transport (see transports): per-session
// OpenOptions, Stats sorted by EPC and Len, an EvictIdle sweep that
// reaches every shard with one EventEvict per pen, the closed-state
// contract (typed ErrClosed from every method, an idempotent Close, an
// already-closed channel from Subscribe), and subscriptions attaching
// and detaching while a pen streams and while Close runs, with a
// dispatch racing Close.
func TestShardBackendConformance(t *testing.T) {
	const pens = 5
	samples, ants := penStreams(t, pens, 101)
	cfg := sessionCfg(ants, 0.2, 16)
	perEPC := reader.SplitByEPC(samples)
	epcs := make([]string, 0, pens)
	for epc := range perEPC {
		epcs = append(epcs, epc)
	}
	sort.Strings(epcs)
	if len(epcs) != pens {
		t.Fatalf("scenario produced %d EPCs, want %d", len(epcs), pens)
	}

	// One pen decodes with per-session options. The reference is an
	// in-process Manager given the same Open, and the options must
	// change its decode for the case to prove anything.
	topK, window := 48, 0.25
	opts := session.OpenOptions{BeamTopK: &topK, Window: &window}
	optEPC := epcs[0]
	reference := func(o session.OpenOptions) *core.Result {
		m := session.NewManager(cfg)
		defer m.Close()
		if err := m.Open(optEPC, o); err != nil {
			t.Fatal(err)
		}
		if err := m.DispatchBatch(perEPC[optEPC]); err != nil {
			t.Fatal(err)
		}
		res, err := m.Finalize(optEPC)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	wantOpt := reference(opts)
	if reflect.DeepEqual(wantOpt, reference(session.OpenOptions{})) {
		t.Fatal("the options do not change the reference decode; open-options has no teeth")
	}

	// awaitClosed fails unless ch is closed within a bound, draining
	// any events still buffered ahead of the close.
	awaitClosed := func(t *testing.T, what string, ch <-chan session.Event) {
		t.Helper()
		deadline := time.After(5 * time.Second)
		for {
			select {
			case _, ok := <-ch:
				if !ok {
					return
				}
			case <-deadline:
				t.Fatalf("%s: channel still open", what)
			}
		}
	}

	// The stats-len, evict-idle and subscribe-* cases assert nothing
	// about the decode, so they run at the serving beam bound, which
	// decodes the same pens several times faster than the window-only
	// beam (a large share of the race-detector run).
	servingCfg := cfg
	servingCfg.Tracker.BeamTopK = core.DefaultBeamTopK
	serving := transports(servingCfg)
	for i, tr := range transports(cfg) {
		fast := serving[i]
		t.Run(tr.name+"/open-options", func(t *testing.T) {
			b := tr.open(t)
			defer b.Close(ctx)
			if err := b.Open(ctx, optEPC, opts); err != nil {
				t.Fatal(err)
			}
			// Opening a live EPC is a no-op: the session keeps its options.
			if err := b.Open(ctx, optEPC, session.OpenOptions{}); err != nil {
				t.Fatal(err)
			}
			if err := b.DispatchBatch(ctx, perEPC[optEPC]); err != nil {
				t.Fatal(err)
			}
			got, err := b.Finalize(ctx, optEPC)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, wantOpt) {
				t.Fatal("decode with OpenOptions diverged from the in-process reference")
			}
			bad := -1
			if err := b.Open(ctx, epcs[1], session.OpenOptions{BeamTopK: &bad}); err == nil {
				t.Fatal("Open accepted BeamTopK -1")
			}
		})
		t.Run(tr.name+"/stats-len", func(t *testing.T) {
			b := fast.open(t)
			defer b.Close(ctx)
			if err := b.DispatchBatch(ctx, samples); err != nil {
				t.Fatal(err)
			}
			st, err := b.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(st) != pens {
				t.Fatalf("Stats lists %d sessions, want %d", len(st), pens)
			}
			var received uint64
			for i, s := range st {
				if s.EPC != epcs[i] {
					t.Fatalf("Stats[%d] is %s, want %s: not sorted by EPC", i, s.EPC, epcs[i])
				}
				received += s.Received
			}
			if received != uint64(len(samples)) {
				t.Fatalf("Stats received %d samples, want %d", received, len(samples))
			}
			if n, err := b.Len(ctx); err != nil || n != pens {
				t.Fatalf("Len = %d, %v; want %d", n, err, pens)
			}
		})
		t.Run(tr.name+"/evict-idle", func(t *testing.T) {
			b := fast.open(t)
			if r, ok := b.(*session.Router); ok {
				owners := map[string]bool{}
				for _, epc := range epcs {
					owners[r.BackendFor(epc)] = true
				}
				if len(owners) < 2 {
					t.Fatalf("every pen routes to one shard; the sweep would not show it reaches both")
				}
			}
			evs, cancel := b.SubscribeFiltered(ctx, session.SubscribeOptions{Kinds: []session.EventKind{session.EventEvict}})
			defer cancel()
			if err := b.DispatchBatch(ctx, samples); err != nil {
				t.Fatal(err)
			}
			if n, err := b.EvictIdle(ctx, 0); err != nil || n != pens {
				t.Fatalf("EvictIdle = %d, %v; want %d", n, err, pens)
			}
			if n, err := b.Len(ctx); err != nil || n != 0 {
				t.Fatalf("Len after the sweep = %d, %v; want 0", n, err)
			}
			evicted := map[string]int{}
			deadline := time.After(10 * time.Second)
			for len(evicted) < pens {
				select {
				case ev := <-evs:
					evicted[ev.EPC]++
				case <-deadline:
					t.Fatalf("Evict events reached %d of %d pens", len(evicted), pens)
				}
			}
			if _, err := b.Close(ctx); err != nil {
				t.Fatal(err)
			}
			for ev := range evs { // Close ends the subscription
				evicted[ev.EPC]++
			}
			for _, epc := range epcs {
				if evicted[epc] != 1 {
					t.Fatalf("EPC %s evicted %d times, want once", epc, evicted[epc])
				}
			}
		})
		t.Run(tr.name+"/closed", func(t *testing.T) {
			b := tr.open(t)
			epc, stroke := epcs[0], perEPC[epcs[0]]
			if err := b.DispatchBatch(ctx, stroke[:len(stroke)/2]); err != nil {
				t.Fatal(err)
			}
			state, err := b.Export(ctx, epc)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.Close(ctx); err != nil {
				t.Fatal(err)
			}
			_, finalizeErr := b.Finalize(ctx, epc)
			_, statsErr := b.Stats(ctx)
			_, lenErr := b.Len(ctx)
			_, evictErr := b.EvictIdle(ctx, 0)
			_, exportErr := b.Export(ctx, epc)
			for name, err := range map[string]error{
				"Open":          b.Open(ctx, epc, session.OpenOptions{}),
				"Dispatch":      b.Dispatch(ctx, stroke[0]),
				"DispatchBatch": b.DispatchBatch(ctx, stroke),
				"Finalize":      finalizeErr,
				"Stats":         statsErr,
				"Len":           lenErr,
				"EvictIdle":     evictErr,
				"Export":        exportErr,
				"Restore":       b.Restore(ctx, epc, state),
				"Restore(junk)": b.Restore(ctx, epc, []byte("not a snapshot")),
			} {
				if !errors.Is(err, session.ErrClosed) {
					t.Errorf("%s after Close: %v, want ErrClosed", name, err)
				}
			}
			if res, err := b.Close(ctx); res != nil || err != nil {
				t.Fatalf("second Close = %v, %v; want nil, nil", res, err)
			}
			if r, ok := b.(*session.Router); ok {
				for _, h := range r.Health() {
					if !h.Healthy || h.Errors != 0 {
						t.Fatalf("calls after Close changed backend health: %+v", h)
					}
				}
			}
		})
		t.Run(tr.name+"/subscribe-after-close", func(t *testing.T) {
			b := fast.open(t)
			if _, err := b.Close(ctx); err != nil {
				t.Fatal(err)
			}
			ch, cancel := b.Subscribe(ctx)
			awaitClosed(t, "Subscribe after Close", ch)
			cancel()
			ch, cancel = b.SubscribeFiltered(ctx, session.SubscribeOptions{Kinds: []session.EventKind{session.EventCommit}})
			awaitClosed(t, "SubscribeFiltered after Close", ch)
			cancel()
		})
		t.Run(tr.name+"/subscribe-cancel-race", func(t *testing.T) {
			b := fast.open(t)
			subscribe := func(sctx context.Context, i int) (<-chan session.Event, session.CancelFunc) {
				if i%2 == 0 {
					return b.Subscribe(sctx)
				}
				return b.SubscribeFiltered(sctx, session.SubscribeOptions{Kinds: []session.EventKind{session.EventPoint}})
			}
			// Long-lived subscribers only Close ends.
			var live []<-chan session.Event
			for i := 0; i < 2; i++ {
				ch, cancel := subscribe(ctx, i)
				defer cancel()
				live = append(live, ch)
			}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // one pen streams throughout
				defer wg.Done()
				for _, smp := range perEPC[epcs[1]] {
					if err := b.Dispatch(ctx, smp); err != nil {
						t.Errorf("dispatch: %v", err)
						return
					}
				}
			}()
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func(i int) { // attach, read at most one event, detach
					defer wg.Done()
					for k := 0; k < 20; k++ {
						sctx, scancel := context.WithCancel(ctx)
						ch, cancel := subscribe(sctx, i)
						select {
						case <-ch:
						default:
						}
						if k%2 == 0 {
							cancel()
						} else {
							scancel() // detaching through ctx closes the channel too
						}
						for range ch {
						}
						cancel()
						scancel()
					}
				}(i)
			}
			wg.Wait()
			// A pen streaming through Close sees only successes, then
			// ErrClosed.
			dispatched := make(chan error, 1)
			go func() {
				for _, smp := range perEPC[epcs[2]] {
					if err := b.Dispatch(ctx, smp); err != nil {
						dispatched <- err
						return
					}
				}
				dispatched <- nil
			}()
			// Subscriptions racing Close: each channel ends, whether it
			// attached before Close began or after.
			stop := make(chan struct{})
			racing := make(chan (<-chan session.Event), 1024)
			go func() {
				defer close(racing)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					ch, cancel := subscribe(ctx, i)
					defer cancel()
					racing <- ch
					if i == cap(racing)-1 {
						<-stop
						return
					}
				}
			}()
			if _, err := b.Close(ctx); err != nil {
				t.Fatal(err)
			}
			close(stop)
			if err := <-dispatched; err != nil && !errors.Is(err, session.ErrClosed) {
				t.Fatalf("dispatch racing Close: %v, want nil or ErrClosed", err)
			}
			for ch := range racing {
				awaitClosed(t, "subscription racing Close", ch)
			}
			for _, ch := range live {
				awaitClosed(t, "subscription live at Close", ch)
			}
		})
	}
}
