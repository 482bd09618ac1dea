package shardrpc

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"polardraw/internal/codec"
	"polardraw/internal/session"
	"polardraw/internal/telemetry"
)

// ServerConfig parameterizes a shard server.
type ServerConfig struct {
	// Session configures the hosted Manager; subscribed connections
	// receive its unified event stream.
	Session session.Config
	// EventBuffer bounds each subscribed connection's outgoing event
	// queue (default session.DefaultEventBuffer). When a slow client
	// lets it fill, events are dropped — never blocking decode workers
	// — and counted in EventsDropped.
	EventBuffer int
	// Telemetry, when set, is the registry opTelemetry snapshots and
	// the server's own wire metrics (frame bytes, batch sizes) land in.
	// Typically the same registry as Session.Telemetry so one snapshot
	// covers decode, session, and transport. Nil disables both.
	Telemetry *telemetry.Registry
}

// srvTelemetry holds the server's wire-level metric handles. All
// handles are nil-safe, so a nil registry costs one dead branch per
// frame.
type srvTelemetry struct {
	frameRx *telemetry.Histogram
	frameTx *telemetry.Histogram
	batch   *telemetry.Histogram
}

func newSrvTelemetry(r *telemetry.Registry) srvTelemetry {
	return srvTelemetry{
		frameRx: r.Histogram(`polardraw_rpc_frame_bytes{dir="rx"}`),
		frameTx: r.Histogram(`polardraw_rpc_frame_bytes{dir="tx"}`),
		batch:   r.Histogram("polardraw_rpc_batch_samples"),
	}
}

// Server hosts one session.Manager per process behind the shardrpc
// wire protocol: the remote half of a ShardBackend. Any number of
// connections may dispatch into the same manager; per-EPC order is
// preserved per connection (frames on one connection are processed
// sequentially), so a router that pins each EPC to one client
// connection keeps the same ordering guarantee the in-process tier
// has. Dispatch applies the manager's backpressure policy: a blocking
// session queue stalls the connection's read loop, pushing back
// through TCP to the dispatching client.
//
// Every connection must open with the opHello version handshake; a
// hello naming another protocol version, or one that does not parse,
// fails the connection with an explicit ErrVersionMismatch instead of
// risking frame misparses between mismatched binaries.
type Server struct {
	cfg ServerConfig
	m   *session.Manager
	tel srvTelemetry

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*srvConn]struct{}
	closed bool
	// seqs holds per-client-identity dispatch sequence state (acked
	// dispatch). Keyed by the hello's client ID so it survives
	// reconnects: the resend after a reconnect dedups against the same
	// applied watermark the broken connection advanced.
	seqs map[string]*clientSeq
	// mship is the latest cluster membership epoch pushed through this
	// server. Kept so late subscribers catch up on attach.
	mship *session.Membership
}

// clientSeq is one client identity's dispatch watermark: applied is
// the highest sequence number accounted for (dispatched or rejected),
// rejected the cumulative count the manager refused. Its mutex orders
// concurrent frames if one identity ever dispatches over two
// connections at once.
type clientSeq struct {
	mu       sync.Mutex
	applied  uint64
	rejected uint64
}

// seqFor returns (creating on first use) the sequence state for a
// client identity.
func (s *Server) seqFor(clientID string) *clientSeq {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs := s.seqs[clientID]
	if cs == nil {
		cs = &clientSeq{}
		s.seqs[clientID] = cs
	}
	return cs
}

// NewServer builds a server hosting a fresh Manager. Call Serve to
// accept connections.
func NewServer(cfg ServerConfig) *Server {
	if cfg.EventBuffer <= 0 {
		cfg.EventBuffer = session.DefaultEventBuffer
	}
	if cfg.Session.EventBuffer <= 0 {
		// Per-connection subscriptions draw from the manager's hub, so
		// the hub buffer is what a slow client actually exercises.
		cfg.Session.EventBuffer = cfg.EventBuffer
	}
	s := &Server{
		cfg:   cfg,
		conns: make(map[*srvConn]struct{}),
		seqs:  make(map[string]*clientSeq),
		tel:   newSrvTelemetry(cfg.Telemetry),
	}
	s.m = session.NewManager(cfg.Session)
	return s
}

// Manager exposes the hosted session manager.
func (s *Server) Manager() *session.Manager { return s.m }

// EventsDropped counts events shed at full subscriber queues.
func (s *Server) EventsDropped() uint64 { return s.m.EventsDropped() }

// SetMembership stores a cluster membership epoch and broadcasts it
// as an EventMembership to every subscribed connection. Epochs must be
// monotonically increasing; a stale one is rejected with
// session.ErrStaleEpoch and nothing is broadcast. Typically invoked
// via a client's SetMembership, but safe to call in-process too.
func (s *Server) SetMembership(m session.Membership) error {
	if err := m.Validate(); err != nil {
		return err
	}
	cp := m
	cp.Members = append([]session.Member(nil), m.Members...)

	s.mu.Lock()
	if s.mship != nil && cp.Epoch <= s.mship.Epoch {
		cur := s.mship.Epoch
		s.mu.Unlock()
		return fmt.Errorf("%w: epoch %d <= current %d", session.ErrStaleEpoch, cp.Epoch, cur)
	}
	s.mship = &cp
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	ev := session.Event{Kind: session.EventMembership, Epoch: cp.Epoch, Members: cp.Members}
	for _, sc := range conns {
		sc.pushMembership(ev)
	}
	return nil
}

// Membership returns the latest stored membership epoch, or false if
// none has been pushed yet.
func (s *Server) Membership() (session.Membership, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mship == nil {
		return session.Membership{}, false
	}
	m := *s.mship
	m.Members = append([]session.Member(nil), m.Members...)
	return m, true
}

// Serve accepts and serves connections on ln until Close. It returns
// nil after Close, or the first accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		go s.handle(c)
	}
}

// Close stops accepting, tears down every connection, and closes the
// hosted manager (finalizing its sessions).
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.c.Close()
	}
	s.m.Close()
}

// Abort drops the listener and every connection WITHOUT closing the
// hosted manager — the wire-level equivalent of the process dying
// mid-stroke, with in-flight session state simply gone from the
// cluster's point of view. It exists for crash/failover tests
// (in-process kill switch usable under -race, where a real SIGKILL
// would take the test harness down with it).
func (s *Server) Abort() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.c.Close()
	}
}

// srvConn is one client connection.
type srvConn struct {
	s *Server
	c net.Conn

	// seq is the dispatch watermark for the client's identity, and
	// defaults the client's connect-time decode defaults, applied to
	// sessions this connection opens implicitly by dispatching an
	// unseen EPC. Both are set once by the handshake and read only by
	// the read loop.
	seq      *clientSeq
	defaults session.OpenOptions

	// wmu serializes frame writes: responses from the request loop and
	// events from the pump share one stream.
	wmu sync.Mutex
	bw  *bufio.Writer

	// subCancel releases the connection's event-hub subscription; set
	// by opSubscribe, nil before. subKinds mirrors the subscription's
	// kind allow-list so out-of-band pushes (membership broadcasts,
	// committed-prefix replay) honor the same filter the hub applies.
	subMu     sync.Mutex
	subCancel session.CancelFunc
	subKinds  []session.EventKind
}

// subWantsKind reports whether the connection's subscription filter
// admits events of kind k (true when unfiltered or not subscribed).
func (sc *srvConn) subWantsKind(k session.EventKind) bool {
	sc.subMu.Lock()
	defer sc.subMu.Unlock()
	if len(sc.subKinds) == 0 {
		return true
	}
	for _, want := range sc.subKinds {
		if want == k {
			return true
		}
	}
	return false
}

func (s *Server) handle(c net.Conn) {
	sc := &srvConn{
		s:  s,
		c:  c,
		bw: bufio.NewWriter(c),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		c.Close()
		return
	}
	s.conns[sc] = struct{}{}
	s.mu.Unlock()

	sc.readLoop()

	sc.unsubscribe()
	s.mu.Lock()
	delete(s.conns, sc)
	s.mu.Unlock()
	c.Close()
}

// subscribe attaches the connection to the manager's unified event
// stream — narrowed by opts when the client sent a filter — and
// starts the pump that frames events onto the wire. A repeat
// opSubscribe replaces the previous subscription, so a client can
// re-arm with a different filter on the same connection.
func (sc *srvConn) subscribe(opts session.SubscribeOptions) {
	sc.subMu.Lock()
	defer sc.subMu.Unlock()
	if sc.subCancel != nil {
		sc.subCancel()
		sc.subCancel = nil
	}
	ch, cancel := sc.s.m.SubscribeFiltered(context.Background(), opts)
	sc.subCancel = cancel
	sc.subKinds = opts.Kinds
	go sc.pump(ch)
}

// pump frames the subscription's events onto the wire until ch closes
// or a write fails. Each burst is the event received plus every event
// already queued behind it, written under one wmu hold and flushed
// once, so a backlog costs one socket write instead of one per event.
// The burst is bounded by the queue length seen when it starts, so a
// steady event stream still yields wmu to acks and responses between
// bursts; the pump is ch's only receiver, so the burst's receives
// never block. One encoder buffer serves every event.
func (sc *srvConn) pump(ch <-chan session.Event) {
	var buf []byte
	frame := func(ev session.Event) error {
		e := codec.NewEncoder(buf[:0])
		encodeEvent(&e, ev)
		buf = e.Bytes()
		if e.Err() != nil {
			return nil // unencodable event: skip it
		}
		return sc.frameLocked(opEvent, buf)
	}
	for ev := range ch {
		sc.wmu.Lock()
		err := frame(ev)
		for n := len(ch); n > 0 && err == nil; n-- {
			ev, ok := <-ch
			if !ok {
				break
			}
			err = frame(ev)
		}
		if err == nil {
			err = sc.bw.Flush()
		}
		sc.wmu.Unlock()
		if err != nil {
			return // conn broken; read loop notices too
		}
	}
}

// pushMembership frames one membership event onto the wire if the
// connection is subscribed. Write errors are swallowed — a broken
// connection is the read loop's problem.
func (sc *srvConn) pushMembership(ev session.Event) {
	sc.subMu.Lock()
	subscribed := sc.subCancel != nil
	sc.subMu.Unlock()
	if !subscribed || !sc.subWantsKind(session.EventMembership) {
		return
	}
	var e codec.Encoder
	if encodeEvent(&e, ev); e.Err() != nil {
		return
	}
	_ = sc.write(opEvent, e.Bytes())
}

// unsubscribe releases the event subscription, which also closes the
// channel and stops the pump.
func (sc *srvConn) unsubscribe() {
	sc.subMu.Lock()
	cancel := sc.subCancel
	sc.subCancel = nil
	sc.subKinds = nil
	sc.subMu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// write frames one message under the connection's write lock and
// flushes it.
func (sc *srvConn) write(op byte, payload []byte) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	if err := sc.frameLocked(op, payload); err != nil {
		return err
	}
	return sc.bw.Flush()
}

// frameLocked buffers one frame without flushing; sc.wmu held.
func (sc *srvConn) frameLocked(op byte, payload []byte) error {
	// 4-byte length prefix + opcode + payload = bytes on the wire.
	sc.s.tel.frameTx.Observe(float64(5 + len(payload)))
	return writeFrame(sc.bw, op, payload)
}

// respondErr sends a statusErr response.
func (sc *srvConn) respondErr(err error) error {
	var e codec.Encoder
	encodeStatus(&e, err)
	return sc.write(opResp, e.Bytes())
}

// respond sends the response payload e holds, or an error response in
// its place when it failed to encode, so every request still gets
// exactly one reply.
func (sc *srvConn) respond(e *codec.Encoder) error {
	if err := e.Err(); err != nil {
		return sc.respondErr(err)
	}
	return sc.write(opResp, e.Bytes())
}

// handshake enforces the version exchange on a connection's first
// frame. It reports whether the connection may proceed; on any
// mismatch — not a hello, another version, or an unparseable hello —
// it answers with the explicit version error (so the peer can surface
// it) and the caller drops the connection. A hello whose default
// OpenOptions fail Validate is refused the same way, with that error.
func (sc *srvConn) handshake(op byte, d *codec.Decoder) bool {
	refuse := func(reason string) bool {
		_ = sc.respondErr(fmt.Errorf("%w: %s; server speaks v%d", ErrVersionMismatch, reason, protoVersion))
		return false
	}
	if op != opHello {
		return refuse(fmt.Sprintf("expected version handshake, got opcode 0x%02x", op))
	}
	if d.Remaining() == 0 {
		return refuse("empty hello")
	}
	v, clientID, defaults := decodeHello(d)
	if v != protoVersion {
		return refuse(fmt.Sprintf("client speaks v%d", v))
	}
	if d.Err() != nil {
		return refuse("client hello does not parse")
	}
	// The defaults apply to every EPC this connection dispatches, so a
	// hello carrying options the tracker cannot honour is refused like
	// a bad opOpen, with Validate's error.
	if err := defaults.Validate(); err != nil {
		_ = sc.respondErr(err)
		return false
	}
	sc.defaults = defaults
	if clientID == "" {
		// Defensive: an identity-less peer still dedups within its own
		// connection, just not across reconnects.
		clientID = fmt.Sprintf("conn:%p", sc)
	}
	sc.seq = sc.s.seqFor(clientID)
	return sc.write(opResp, []byte{statusOK, protoVersion}) == nil
}

// readLoop processes request frames sequentially until the connection
// drops or a protocol violation occurs.
func (sc *srvConn) readLoop() {
	br := bufio.NewReader(sc.c)
	m := sc.s.m
	hello := false
	for {
		op, payload, err := readFrame(br)
		if err != nil {
			return
		}
		sc.s.tel.frameRx.Observe(float64(5 + len(payload)))
		d := codec.NewDecoder(payload)
		if !hello {
			if !sc.handshake(op, &d) {
				return
			}
			hello = true
			continue
		}
		switch op {
		case opDispatchSeq:
			firstSeq := d.U64()
			batch := decodeSamples(&d)
			if d.Err() != nil {
				return
			}
			sc.s.tel.batch.Observe(float64(len(batch)))
			cs := sc.seq
			cs.mu.Lock()
			for i, smp := range batch {
				seq := firstSeq + uint64(i)
				if seq <= cs.applied {
					continue // duplicate from a resend; already applied
				}
				if err := m.DispatchWith(smp, sc.defaults); err != nil {
					cs.rejected++
				}
				cs.applied = seq
			}
			acked, rejected := cs.applied, cs.rejected
			cs.mu.Unlock()
			var e codec.Encoder
			e.U64(acked)
			e.U64(rejected)
			if sc.write(opAck, e.Bytes()) != nil {
				return
			}

		case opSubscribe:
			var opts session.SubscribeOptions
			if d.Remaining() > 0 {
				// An empty payload means unfiltered.
				opts = decodeSubscribeOptions(&d)
				if d.Err() != nil {
					return
				}
			}
			sc.subscribe(opts)
			var epcAllow map[string]bool
			if len(opts.EPCs) > 0 {
				epcAllow = make(map[string]bool, len(opts.EPCs))
				for _, epc := range opts.EPCs {
					epcAllow[epc] = true
				}
			}
			if sc.subWantsKind(session.EventCommit) {
				// Replay each live session's committed prefix so a
				// subscriber that reconnected mid-stroke has no gap:
				// commits that fired during the outage are re-delivered
				// as one absolute-prefix EventCommit per EPC (consumers
				// key on CommitStart, so overlap with live commits is
				// idempotent). The replay honors the same filter the
				// live subscription enforces.
				for epc, prefix := range m.CommittedPrefixes() {
					if epcAllow != nil && !epcAllow[epc] {
						continue
					}
					var e codec.Encoder
					ev := session.Event{
						Kind:        session.EventCommit,
						EPC:         epc,
						CommitStart: 0,
						Segment:     prefix,
					}
					if encodeEvent(&e, ev); e.Err() != nil {
						continue
					}
					if sc.write(opEvent, e.Bytes()) != nil {
						return
					}
				}
			}
			// Late subscribers catch up on the current membership epoch
			// the same way they catch up on committed prefixes: routers
			// dedup by epoch, so a re-delivery after a reconnect is
			// idempotent.
			if m, ok := sc.s.Membership(); ok {
				sc.pushMembership(session.Event{
					Kind: session.EventMembership, Epoch: m.Epoch, Members: m.Members,
				})
			}

		case opMembership:
			mship := decodeMembership(&d)
			if d.Err() != nil {
				return
			}
			var e codec.Encoder
			encodeStatus(&e, sc.s.SetMembership(mship))
			if sc.respond(&e) != nil {
				return
			}

		case opPing:
			if sc.write(opResp, []byte{statusOK}) != nil {
				return
			}

		case opOpen:
			epc := d.Str()
			opts := session.DecodeOpenOptions(&d)
			if d.Err() != nil {
				return
			}
			var e codec.Encoder
			encodeStatus(&e, m.Open(epc, opts))
			if sc.respond(&e) != nil {
				return
			}

		case opFinalize:
			epc := d.Str()
			if d.Err() != nil {
				return
			}
			res, err := m.Finalize(epc)
			var e codec.Encoder
			if encodeStatus(&e, err); err == nil {
				encodeResult(&e, res)
			}
			if sc.respond(&e) != nil {
				return
			}

		case opExport:
			epc := d.Str()
			if d.Err() != nil {
				return
			}
			state, err := m.Export(epc)
			var e codec.Encoder
			if encodeStatus(&e, err); err == nil {
				e.Blob(state)
			}
			if sc.respond(&e) != nil {
				return
			}

		case opRestore:
			epc := d.Str()
			state := d.Blob()
			if d.Err() != nil {
				return
			}
			var e codec.Encoder
			encodeStatus(&e, m.Restore(epc, state))
			if sc.respond(&e) != nil {
				return
			}

		case opStats:
			st := m.Stats()
			var e codec.Encoder
			e.U8(statusOK)
			e.U32(uint32(len(st)))
			for _, s := range st {
				encodeStats(&e, s)
			}
			if sc.respond(&e) != nil {
				return
			}

		case opTelemetry:
			var e codec.Encoder
			e.U8(statusOK)
			encodeTelemetry(&e, sc.s.cfg.Telemetry.Snapshot())
			if sc.respond(&e) != nil {
				return
			}

		case opEvictIdle:
			maxIdle := time.Duration(d.I64())
			if d.Err() != nil {
				return
			}
			var e codec.Encoder
			e.U8(statusOK)
			e.U32(uint32(m.EvictIdle(maxIdle)))
			if sc.respond(&e) != nil {
				return
			}

		case opLen:
			var e codec.Encoder
			e.U8(statusOK)
			e.U32(uint32(m.Len()))
			if sc.respond(&e) != nil {
				return
			}

		case opClose:
			results := m.Close()
			var e codec.Encoder
			e.U8(statusOK)
			e.U32(uint32(len(results)))
			for epc, res := range results {
				e.Str(epc)
				encodeResult(&e, res)
			}
			if sc.respond(&e) != nil {
				return
			}

		default:
			// Unknown opcode: protocol violation, drop the connection.
			return
		}
	}
}
