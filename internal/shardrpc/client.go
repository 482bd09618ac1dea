package shardrpc

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	mrand "math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"polardraw/internal/codec"
	"polardraw/internal/core"
	"polardraw/internal/reader"
	"polardraw/internal/session"
	"polardraw/internal/telemetry"
)

// Client errors.
var (
	// ErrClientClosed is returned by every method after Close or
	// Detach. It wraps session.ErrClosed, so errors.Is(err,
	// session.ErrClosed) holds on this transport as on every other.
	ErrClientClosed = fmt.Errorf("shardrpc: client closed: %w", session.ErrClosed)
	// ErrCallTimeout is returned when a request's response does not
	// arrive within CallTimeout; the connection is torn down (the frame
	// stream cannot be resynchronized) and redialed on next use.
	ErrCallTimeout = errors.New("shardrpc: call timed out")
)

// unavailable tags a transport-level failure with the taxonomy
// sentinel, so errors.Is(err, session.ErrBackendUnavailable) holds for
// dial, write, and read failures however deep they happened.
func unavailable(err error) error {
	if errors.Is(err, session.ErrBackendUnavailable) {
		return err
	}
	return fmt.Errorf("%w: %v", session.ErrBackendUnavailable, err)
}

// ClientConfig parameterizes a shard client.
type ClientConfig struct {
	// Addr is the shard server's host:port.
	Addr string
	// DialTimeout bounds connection establishment including the
	// version handshake (default 5s).
	DialTimeout time.Duration
	// CallTimeout bounds each synchronous request (default 30s); a
	// context deadline shorter than CallTimeout wins.
	CallTimeout time.Duration
	// BatchSize is the number of samples single-sample Dispatch buffers
	// before an automatic flush (default 64). Larger batches amortize
	// framing and syscalls; smaller ones reduce added latency.
	// DispatchBatch does not wait for it: each call is written as one
	// frame before it returns.
	BatchSize int
	// FlushInterval bounds how long a sample buffered by Dispatch may
	// wait for its batch to fill (default 2ms).
	FlushInterval time.Duration
	// EventBuffer bounds each Subscribe consumer's channel (default
	// session.DefaultEventBuffer).
	EventBuffer int
	// ResendLimit bounds the unacknowledged-sample buffer (default
	// 1<<16). When an outage outlasts the buffer, the oldest samples
	// age out and are counted in Lost; everything younger is resent
	// after the reconnect.
	ResendLimit int
	// RedialBackoff is the starting gap between reconnection attempts
	// after a failed dial (default 250ms). Consecutive failures double
	// the gap up to RedialBackoffMax, and each wait is jittered
	// uniformly over its upper half, so a fleet of clients redialing a
	// restarted shard spreads out instead of stampeding it; a
	// successful dial resets the gap.
	RedialBackoff time.Duration
	// RedialBackoffMax caps the exponential redial gap (default 5s).
	RedialBackoffMax time.Duration
	// Dialer establishes the transport connection (default
	// net.DialTimeout over TCP). Overridable for tests and fault
	// injection (internal/chaos wraps the returned conn).
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)
	// Defaults are the client's default decode OpenOptions, carried in
	// the hello so sessions opened implicitly by dispatching an unseen
	// EPC inherit them server-side — bit-equivalent to the same
	// defaults applied to a local manager.
	Defaults session.OpenOptions
	// Telemetry, when set, receives the client's wire metrics: frame
	// bytes in both directions, dispatch batch sizes, and redials.
	Telemetry *telemetry.Registry
}

// cliTelemetry holds the client's wire-level metric handles; all are
// nil-safe, so an unset registry costs one dead branch per frame.
type cliTelemetry struct {
	frameRx *telemetry.Histogram
	frameTx *telemetry.Histogram
	batch   *telemetry.Histogram
	redials *telemetry.Counter
}

func newCliTelemetry(r *telemetry.Registry) cliTelemetry {
	return cliTelemetry{
		frameRx: r.Histogram(`polardraw_rpc_frame_bytes{dir="rx"}`),
		frameTx: r.Histogram(`polardraw_rpc_frame_bytes{dir="tx"}`),
		batch:   r.Histogram("polardraw_rpc_batch_samples"),
		redials: r.Counter("polardraw_rpc_redials_total"),
	}
}

func (cfg ClientConfig) withDefaults() ClientConfig {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 30 * time.Second
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 2 * time.Millisecond
	}
	if cfg.ResendLimit <= 0 {
		cfg.ResendLimit = 1 << 16
	}
	if cfg.RedialBackoff <= 0 {
		cfg.RedialBackoff = 250 * time.Millisecond
	}
	if cfg.RedialBackoffMax <= 0 {
		cfg.RedialBackoffMax = 5 * time.Second
	}
	if cfg.RedialBackoffMax < cfg.RedialBackoff {
		cfg.RedialBackoffMax = cfg.RedialBackoff
	}
	if cfg.Dialer == nil {
		cfg.Dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	return cfg
}

// respMsg is one response delivered to a waiting call.
type respMsg struct {
	payload []byte
	err     error
}

// seqSample is one dispatched sample with its per-client sequence
// number (acked dispatch).
type seqSample struct {
	seq uint64
	smp reader.Sample
}

// Client speaks the shardrpc protocol to one shard server and
// implements session.ShardBackend, so a session.Router treats a
// remote shard process exactly like an in-process one. The connection
// is long-lived and reused across every call. DispatchBatch writes its
// samples as one frame before it returns; single-sample Dispatch
// buffers them into batches. Buffered samples are always flushed before
// any synchronous request, preserving per-EPC order between samples and
// control calls.
//
// Every dispatched sample carries a sequence number and stays buffered
// until the server acknowledges it: a transport failure delays
// delivery (the tail is resent after the automatic reconnect,
// deduplicated server-side by sequence) instead of losing it. Lost
// counts only samples the server rejected or that aged out of the
// ResendLimit buffer during a long outage.
//
// Every method honours its context: a call blocked on a dead or
// unresponsive remote returns ctx.Err() as soon as the context ends
// (tearing the connection down, since the FIFO response stream cannot
// be resynchronized past an abandoned request).
//
// A Client is safe for concurrent use.
type Client struct {
	cfg      ClientConfig
	clientID string // stable identity for server-side seq dedup

	mu         sync.Mutex
	conn       net.Conn
	bw         *bufio.Writer
	gen        int // connection generation; stale read loops are ignored
	subscribed bool
	// subFilter is the filter the wire-level subscription was armed
	// with (zero = unfiltered). When subscribers with incompatible
	// filters coexist, the wire widens to unfiltered and each local
	// consumer's own hub filter narrows delivery.
	subFilter session.SubscribeOptions
	// pending holds buffered samples not yet written; sent holds
	// written-but-unacknowledged samples. Sequence numbers across
	// sent ++ pending are contiguous. Both keep their backing arrays
	// across flushes and acks, as do smps and enc, the scratch that
	// sendSeqLocked frames a batch with.
	pending []seqSample
	sent    []seqSample
	smps    []reader.Sample
	enc     []byte
	nextSeq uint64
	// rejectedSeen mirrors the server's cumulative rejected count, so
	// each ack adds only the delta to lost.
	rejectedSeen uint64
	// redialAt gates reconnection attempts; lastDialErr is returned for
	// attempts inside the backoff window. redialWait is the current
	// exponential gap (RedialBackoff..RedialBackoffMax), zero after a
	// successful dial.
	redialAt    time.Time
	redialWait  time.Duration
	lastDialErr error
	waiters     []chan respMsg
	closed      bool

	events session.EventHub

	stopFlush chan struct{}

	lost       atomic.Uint64
	reconnects atomic.Uint64

	tel cliTelemetry
}

// Dial connects to a shard server and performs the version handshake.
// The background flush loop starts immediately; the connection is
// re-established transparently after failures. A server speaking
// another protocol version fails with ErrVersionMismatch.
func Dial(cfg ClientConfig) (*Client, error) {
	if err := cfg.Defaults.Validate(); err != nil {
		return nil, fmt.Errorf("shardrpc: default open options: %w", err)
	}
	var idb [8]byte
	if _, err := rand.Read(idb[:]); err != nil {
		return nil, fmt.Errorf("shardrpc: client id: %w", err)
	}
	c := &Client{
		cfg:       cfg.withDefaults(),
		clientID:  hex.EncodeToString(idb[:]),
		stopFlush: make(chan struct{}),
	}
	c.tel = newCliTelemetry(c.cfg.Telemetry)
	c.mu.Lock()
	err := c.ensureConnLocked()
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	go c.flushLoop()
	return c, nil
}

// Addr returns the configured server address.
func (c *Client) Addr() string { return c.cfg.Addr }

// Lost counts samples that are gone for good: samples the server
// rejected or that aged out of the resend buffer.
func (c *Client) Lost() uint64 { return c.lost.Load() }

// Reconnects counts successful redials after a connection failure.
func (c *Client) Reconnects() uint64 { return c.reconnects.Load() }

// handshake performs the synchronous version exchange on a fresh
// connection, before any other frame: send opHello carrying the
// protocol version, the client identity, and the default decode
// options, then read the opResp, which must echo the same version. A
// hangup before the reply is a transport failure (a dying shard), not
// a version skew. The conn deadline bounds the whole exchange.
func (c *Client) handshake(conn net.Conn) error {
	if err := conn.SetDeadline(time.Now().Add(c.cfg.DialTimeout)); err != nil {
		return unavailable(err)
	}
	defer conn.SetDeadline(time.Time{})
	var e codec.Encoder
	if encodeHello(&e, protoVersion, c.clientID, c.cfg.Defaults); e.Err() != nil {
		return e.Err()
	}
	bw := bufio.NewWriter(conn)
	if err := writeFrame(bw, opHello, e.Bytes()); err != nil {
		return unavailable(err)
	}
	if err := bw.Flush(); err != nil {
		return unavailable(err)
	}
	op, payload, err := readFrame(conn)
	if err != nil {
		return unavailable(err)
	}
	if op != opResp {
		return fmt.Errorf("%w: server at %s answered the handshake with opcode 0x%02x",
			ErrVersionMismatch, c.cfg.Addr, op)
	}
	d := codec.NewDecoder(payload)
	if err := checkStatus(&d); err != nil {
		return err
	}
	if v := d.U8(); d.Err() != nil || v != protoVersion {
		return fmt.Errorf("%w: server at %s answered v%d, client speaks v%d",
			ErrVersionMismatch, c.cfg.Addr, v, protoVersion)
	}
	return nil
}

// ensureConnLocked dials (and handshakes) if no live connection
// exists, resending any unacknowledged samples on the fresh
// connection; c.mu held. Failed attempts are cached for RedialBackoff
// so hot paths (the flush ticker, per-batch flushes) do not hammer a
// dead address.
func (c *Client) ensureConnLocked() error {
	if c.conn != nil {
		return nil
	}
	if time.Now().Before(c.redialAt) && c.lastDialErr != nil {
		return c.lastDialErr
	}
	err := c.dialLocked()
	if err != nil {
		// Jittered exponential backoff: double the gap on each
		// consecutive failure up to the cap, then wait a uniformly
		// random point in [gap/2, gap] — a restarted shard sees its
		// clients trickle back instead of stampeding in lockstep.
		if c.redialWait <= 0 {
			c.redialWait = c.cfg.RedialBackoff
		} else if c.redialWait < c.cfg.RedialBackoffMax {
			c.redialWait *= 2
			if c.redialWait > c.cfg.RedialBackoffMax {
				c.redialWait = c.cfg.RedialBackoffMax
			}
		}
		gap := c.redialWait
		if half := gap / 2; half > 0 {
			gap = half + time.Duration(mrand.Int64N(int64(half)+1))
		}
		c.redialAt = time.Now().Add(gap)
		c.lastDialErr = err
		return err
	}
	c.redialAt = time.Time{}
	c.redialWait = 0
	c.lastDialErr = nil
	return nil
}

// dialLocked performs one full connection attempt: dial, handshake,
// start the read loop, resend the unacked tail, re-arm the event
// subscription.
func (c *Client) dialLocked() error {
	conn, err := c.cfg.Dialer(c.cfg.Addr, c.cfg.DialTimeout)
	if err != nil {
		return unavailable(fmt.Errorf("shardrpc: dial %s: %w", c.cfg.Addr, err))
	}
	if err := c.handshake(conn); err != nil {
		conn.Close()
		return err
	}
	if c.gen > 0 {
		c.reconnects.Add(1)
		c.tel.redials.Inc()
	}
	c.conn = conn
	c.bw = bufio.NewWriter(conn)
	c.gen++
	c.subscribed = false
	go c.readLoop(conn, c.gen)
	if len(c.sent)+len(c.pending) > 0 {
		// Resend everything unacknowledged; the server's per-client
		// sequence state skips what it already applied.
		if err := c.sendSeqLocked(true); err != nil {
			return fmt.Errorf("shardrpc: resend %s: %w", c.cfg.Addr, err)
		}
	}
	if c.events.HasSubscribers() {
		// A failed subscribe has already torn the connection down
		// (c.bw is nil again), so it must fail the ensure: callers are
		// about to write frames.
		if err := c.writeFrameLocked(opSubscribe, c.subscribePayloadLocked()); err != nil {
			return fmt.Errorf("shardrpc: subscribe %s: %w", c.cfg.Addr, err)
		}
		c.subscribed = true
	}
	return nil
}

// subscribePayloadLocked builds the opSubscribe payload for the
// current wire filter: the encoded filter, or nil (unfiltered) when
// the filter is zero; c.mu held.
func (c *Client) subscribePayloadLocked() []byte {
	if c.subFilter.IsZero() {
		return nil
	}
	var e codec.Encoder
	if encodeSubscribeOptions(&e, c.subFilter); e.Err() != nil {
		return nil // unencodable filter: fall back to unfiltered
	}
	return e.Bytes()
}

// teardownLocked invalidates the current connection and fails every
// pending waiter; c.mu held. Stale generations are ignored so a dying
// read loop cannot kill its successor.
func (c *Client) teardownLocked(gen int, cause error) {
	if gen != c.gen || c.conn == nil {
		return
	}
	c.conn.Close()
	c.conn = nil
	c.bw = nil
	for _, ch := range c.waiters {
		ch <- respMsg{err: cause}
	}
	c.waiters = nil
}

// writeFrameLocked frames one message and flushes; c.mu held.
func (c *Client) writeFrameLocked(op byte, payload []byte) error {
	// 4-byte length prefix + opcode + payload = bytes on the wire.
	c.tel.frameTx.Observe(float64(5 + len(payload)))
	if err := writeFrame(c.bw, op, payload); err != nil {
		err = unavailable(err)
		c.teardownLocked(c.gen, err)
		return err
	}
	if err := c.bw.Flush(); err != nil {
		err = unavailable(err)
		c.teardownLocked(c.gen, err)
		return err
	}
	return nil
}

// sendSeqLocked writes the unacknowledged tail (sent ++ pending when
// resend, else just pending) as one opDispatchSeq frame and moves
// pending into sent; c.mu held with a live connection. A write failure
// keeps everything buffered: the sequence dedup makes the eventual
// resend idempotent even after a partial write landed server-side.
func (c *Client) sendSeqLocked(resend bool) error {
	var head []seqSample
	if resend {
		head = c.sent
	}
	n := len(head) + len(c.pending)
	if n == 0 {
		return nil
	}
	first := c.pending
	if len(head) > 0 {
		first = head
	}
	smps := c.smps[:0]
	for _, ss := range head {
		smps = append(smps, ss.smp)
	}
	for _, ss := range c.pending {
		smps = append(smps, ss.smp)
	}
	e := codec.NewEncoder(c.enc[:0])
	e.U64(first[0].seq)
	encodeSamples(&e, smps)
	// The scratch is kept for the next batch with its samples cleared,
	// so it pins no EPC strings.
	clear(smps)
	c.smps, c.enc = smps[:0], e.Bytes()
	if e.Err() != nil {
		// Unencodable samples (oversized EPC) can never cross the wire:
		// drop them for good.
		c.lost.Add(uint64(n))
		c.sent, c.pending = nil, nil
		return e.Err()
	}
	if err := c.writeFrameLocked(opDispatchSeq, e.Bytes()); err != nil {
		return err
	}
	c.tel.batch.Observe(float64(n))
	c.sent = append(c.sent, c.pending...)
	c.pending = c.pending[:0]
	return nil
}

// enforceResendCapLocked bounds sent ++ pending to ResendLimit by
// aging out the oldest samples into Lost; c.mu held. Called while the
// connection is down, so a multi-minute outage degrades to bounded
// memory instead of unbounded buffering of arbitrarily stale reads.
func (c *Client) enforceResendCapLocked() {
	over := len(c.sent) + len(c.pending) - c.cfg.ResendLimit
	if over <= 0 {
		return
	}
	c.lost.Add(uint64(over))
	if n := min(over, len(c.sent)); n > 0 {
		c.sent = dropHead(c.sent, n)
		over -= n
	}
	if over > 0 {
		c.pending = dropHead(c.pending, over)
	}
}

// dropHead removes the first n samples of s in place, keeping its
// backing array, and clears the vacated tail so it pins no EPC strings.
func dropHead(s []seqSample, n int) []seqSample {
	m := copy(s, s[n:])
	clear(s[m:])
	return s[:m]
}

// flushLocked sends the buffered dispatch batch; c.mu held. The
// samples stay buffered until acked — a transport failure leaves them
// queued for the post-reconnect resend (bounded by ResendLimit).
func (c *Client) flushLocked() error {
	if len(c.pending) == 0 && len(c.sent) == 0 {
		return nil
	}
	if err := c.ensureConnLocked(); err != nil {
		c.enforceResendCapLocked()
		return err
	}
	return c.sendSeqLocked(false)
}

// flushLoop bounds the time a sample buffered by Dispatch waits for
// its batch, and doubles as the reconnection heartbeat: while the
// connection is down it keeps redialing (backoff-gated) so unacked
// samples are resent and event subscriptions re-armed without waiting
// for the next synchronous call.
func (c *Client) flushLoop() {
	t := time.NewTicker(c.cfg.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.mu.Lock()
			switch {
			case c.closed:
			case len(c.pending) > 0 || (c.conn == nil && len(c.sent) > 0):
				_ = c.flushLocked()
			case c.conn == nil && c.events.HasSubscribers():
				// Nothing to send, but a subscriber is waiting on the
				// event stream: reconnect so commits fired during the
				// outage resume flowing (the server replays the
				// committed prefix on resubscribe).
				_ = c.ensureConnLocked()
			}
			c.mu.Unlock()
		case <-c.stopFlush:
			return
		}
	}
}

// readLoop demultiplexes the connection's inbound stream: event frames
// go to subscribers, response frames to the oldest pending waiter.
func (c *Client) readLoop(conn net.Conn, gen int) {
	fail := func(err error) {
		c.mu.Lock()
		c.teardownLocked(gen, unavailable(err))
		c.mu.Unlock()
	}
	br := bufio.NewReader(conn)
	for {
		op, payload, err := readFrame(br)
		if err != nil {
			fail(err)
			return
		}
		c.tel.frameRx.Observe(float64(5 + len(payload)))
		switch op {
		case opEvent:
			c.mu.Lock()
			stale := gen != c.gen
			c.mu.Unlock()
			if stale {
				return // superseded connection; stop delivering
			}
			d := codec.NewDecoder(payload)
			ev := decodeEvent(&d)
			if d.Err() != nil {
				fail(d.Err())
				return
			}
			c.events.Publish(ev)
		case opAck:
			d := codec.NewDecoder(payload)
			acked, rejected := d.U64(), d.U64()
			if d.Err() != nil {
				fail(d.Err())
				return
			}
			c.mu.Lock()
			if gen != c.gen {
				c.mu.Unlock()
				return
			}
			// Drop the acknowledged prefix of the unacked buffer.
			i := 0
			for i < len(c.sent) && c.sent[i].seq <= acked {
				i++
			}
			if i > 0 {
				c.sent = dropHead(c.sent, i)
			}
			// The server's rejected count is cumulative for this client
			// identity; add only the delta. A count below what we have
			// seen means the server restarted and reset the tally, so
			// the whole new count is uncounted rejections.
			if rejected < c.rejectedSeen {
				c.lost.Add(rejected)
			} else {
				c.lost.Add(rejected - c.rejectedSeen)
			}
			c.rejectedSeen = rejected
			c.mu.Unlock()
		case opResp:
			c.mu.Lock()
			if gen != c.gen {
				// This connection was torn down (its waiters already
				// failed) and possibly replaced: a late response here
				// belongs to an old request and must NOT be handed to
				// the successor connection's waiter queue.
				c.mu.Unlock()
				return
			}
			if len(c.waiters) == 0 {
				// Response with nothing pending: protocol violation.
				c.teardownLocked(gen, errors.New("shardrpc: unsolicited response"))
				c.mu.Unlock()
				return
			}
			ch := c.waiters[0]
			c.waiters = c.waiters[1:]
			c.mu.Unlock()
			ch <- respMsg{payload: payload}
		default:
			fail(fmt.Errorf("shardrpc: unexpected opcode 0x%02x", op))
			return
		}
	}
}

// call performs one synchronous request: flush buffered samples (so
// per-EPC order is preserved relative to the request), frame it, and
// wait for the FIFO-matched response — bounded by both ctx and
// CallTimeout. An abandoned wait tears the connection down: the FIFO
// stream cannot be resynchronized past a request whose response nobody
// will claim.
func (c *Client) call(ctx context.Context, op byte, payload []byte, force bool) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed && !force {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	if err := c.flushLocked(); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	if err := c.ensureConnLocked(); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	ch := make(chan respMsg, 1)
	c.waiters = append(c.waiters, ch)
	gen := c.gen
	err := c.writeFrameLocked(op, payload)
	c.mu.Unlock()
	if err != nil {
		return nil, err // teardown already failed ch
	}
	timeout := time.NewTimer(c.cfg.CallTimeout)
	defer timeout.Stop()
	abandoned := func(cause error) ([]byte, error) {
		c.mu.Lock()
		c.teardownLocked(gen, cause)
		c.mu.Unlock()
		// The teardown delivered an error unless a response raced in.
		select {
		case msg := <-ch:
			return msg.payload, msg.err
		default:
			return nil, cause
		}
	}
	select {
	case msg := <-ch:
		return msg.payload, msg.err
	case <-ctx.Done():
		return abandoned(ctx.Err())
	case <-timeout.C:
		return abandoned(ErrCallTimeout)
	}
}

// request sends one request frame holding e's payload (none when e is
// nil) and returns a decoder over the response body, past its statusOK
// byte; a failure response comes back as its reconstructed error.
func (c *Client) request(ctx context.Context, op byte, e *codec.Encoder) (codec.Decoder, error) {
	var req []byte
	if e != nil {
		if err := e.Err(); err != nil {
			return codec.Decoder{}, err
		}
		req = e.Bytes()
	}
	payload, err := c.call(ctx, op, req, false)
	if err != nil {
		return codec.Decoder{}, err
	}
	d := codec.NewDecoder(payload)
	err = checkStatus(&d)
	return d, err
}

// checkStatus consumes the response status byte, returning the
// reconstructed error for failures.
func checkStatus(d *codec.Decoder) error {
	if d.U8() == statusErr {
		return decodeError(d)
	}
	return d.Err()
}

// Open eagerly creates the EPC's session on the remote shard with
// per-session decode options (see session.Manager.Open for the
// semantics). Options cross the wire losslessly, so the remote session
// decodes bit-identically to a local one opened with the same options.
func (c *Client) Open(ctx context.Context, epc string, opts session.OpenOptions) error {
	if err := opts.Validate(); err != nil {
		return err
	}
	var e codec.Encoder
	e.Str(epc)
	session.EncodeOpenOptions(&e, opts)
	_, err := c.request(ctx, opOpen, &e)
	return err
}

// Dispatch buffers one sample, flushing when the batch fills. Errors
// surface only at flush boundaries; a flush error leaves the samples
// buffered for the post-reconnect resend.
func (c *Client) Dispatch(ctx context.Context, smp reader.Sample) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClientClosed
	}
	c.nextSeq++
	c.pending = append(c.pending, seqSample{seq: c.nextSeq, smp: smp})
	if len(c.pending) >= c.cfg.BatchSize {
		return c.flushLocked()
	}
	return nil
}

// DispatchBatch writes the batch, behind any samples Dispatch buffered,
// as one frame before it returns: a caller that already batches does
// not wait for BatchSize or FlushInterval. A write error leaves the
// samples buffered for the post-reconnect resend, as Dispatch does.
func (c *Client) DispatchBatch(ctx context.Context, batch []reader.Sample) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClientClosed
	}
	for _, smp := range batch {
		c.nextSeq++
		c.pending = append(c.pending, seqSample{seq: c.nextSeq, smp: smp})
	}
	return c.flushLocked()
}

// AbandonPending discards every buffered and unacknowledged sample
// without counting them in Lost. The router calls it before a failover
// replay: the journal holds those samples and redelivers them to the
// new shard, so counting them here would double-book the loss metric
// for samples that were in fact preserved.
func (c *Client) AbandonPending() {
	c.mu.Lock()
	c.pending, c.sent = nil, nil
	c.mu.Unlock()
}

// Flush forces out any buffered samples.
func (c *Client) Flush(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClientClosed
	}
	return c.flushLocked()
}

// Subscribe attaches a consumer to the remote shard's unified event
// stream: the server pushes every event kind its manager emits, and
// delivery to consumers is exactly as a local subscription — buffered,
// lossy for slow consumers, closed on cancel. Subscribing arms the
// wire-level event push on the current connection (and on every
// reconnect).
func (c *Client) Subscribe(ctx context.Context) (<-chan Event, session.CancelFunc) {
	return c.SubscribeFiltered(ctx, session.SubscribeOptions{})
}

// subFiltersEqual reports whether two subscription filters are
// identical (order-sensitive — a conservative comparison that may
// widen the wire filter unnecessarily, never narrow it wrongly).
func subFiltersEqual(a, b session.SubscribeOptions) bool {
	if len(a.Kinds) != len(b.Kinds) || len(a.EPCs) != len(b.EPCs) {
		return false
	}
	for i := range a.Kinds {
		if a.Kinds[i] != b.Kinds[i] {
			return false
		}
	}
	for i := range a.EPCs {
		if a.EPCs[i] != b.EPCs[i] {
			return false
		}
	}
	return true
}

// SubscribeFiltered is Subscribe narrowed by opts (see
// session.SubscribeOptions for the match rules). The filter is pushed
// onto the wire, so excluded events never leave the shard — the
// bandwidth win is the point of filtering. When subscribers with
// different filters share the connection, the wire subscription widens
// and the same filter is applied client-side instead: delivery
// semantics are identical either way, only the transport cost differs.
func (c *Client) SubscribeFiltered(ctx context.Context, opts session.SubscribeOptions) (<-chan Event, session.CancelFunc) {
	ch, cancel := c.events.SubscribeFiltered(ctx, c.cfg.EventBuffer, opts)
	c.mu.Lock()
	switch {
	case c.closed:
	case !c.subscribed:
		c.subFilter = opts
		if c.conn != nil {
			if err := c.writeFrameLocked(opSubscribe, c.subscribePayloadLocked()); err == nil {
				c.subscribed = true
			}
			// On error the connection is torn down; the redial path
			// re-arms the subscription (events.hasSubscribers is now
			// true).
		}
	case !c.subFilter.IsZero() && !subFiltersEqual(c.subFilter, opts):
		// A second consumer wants events the armed filter excludes:
		// widen the wire subscription to unfiltered and let each
		// consumer's hub filter narrow delivery locally. (The server
		// replaces the subscription on re-subscribe.)
		c.subFilter = session.SubscribeOptions{}
		if c.conn != nil {
			_ = c.writeFrameLocked(opSubscribe, nil)
		}
	}
	c.mu.Unlock()
	return ch, cancel
}

// Event re-exports the unified event type for callers holding only a
// client.
type Event = session.Event

// Telemetry snapshots the remote shard's telemetry registry: every
// counter, gauge, and histogram the server's layers registered, with
// histogram buckets intact so snapshots from multiple shards merge
// into cluster-wide quantiles.
func (c *Client) Telemetry(ctx context.Context) (telemetry.Snapshot, error) {
	d, err := c.request(ctx, opTelemetry, nil)
	if err != nil {
		return telemetry.Snapshot{}, err
	}
	s := decodeTelemetry(&d)
	return s, d.Err()
}

// SetMembership pushes a cluster membership epoch to the server, which
// stores it and broadcasts an EventMembership to every subscribed
// client (including this one, if subscribed). Stale epochs are
// rejected with session.ErrStaleEpoch.
func (c *Client) SetMembership(ctx context.Context, m session.Membership) error {
	if err := m.Validate(); err != nil {
		return err
	}
	var e codec.Encoder
	encodeMembership(&e, m)
	_, err := c.request(ctx, opMembership, &e)
	return err
}

// Detach shuts the client down without closing the remote manager:
// the transport drops, event subscriptions end, and buffered samples
// that never reached the server are counted as lost — but the server
// keeps running for its other clients. A router uses this when a
// membership change removes a backend it no longer owns. Later calls
// (and a later Close) are no-ops.
func (c *Client) Detach() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	n := len(c.sent) + len(c.pending)
	c.sent, c.pending = nil, nil
	c.teardownLocked(c.gen, ErrClientClosed)
	c.mu.Unlock()
	if n > 0 {
		c.lost.Add(uint64(n))
	}
	close(c.stopFlush)
	c.events.CloseAll()
	return nil
}

// Export removes the EPC's session from the remote shard and returns
// its serialized mid-stroke state (see session.Manager.Export).
func (c *Client) Export(ctx context.Context, epc string) ([]byte, error) {
	var e codec.Encoder
	e.Str(epc)
	d, err := c.request(ctx, opExport, &e)
	if err != nil {
		return nil, err
	}
	state := d.Blob()
	return state, d.Err()
}

// Restore rebuilds the EPC's session on the remote shard from an
// exported snapshot (see session.Manager.Restore).
func (c *Client) Restore(ctx context.Context, epc string, state []byte) error {
	var e codec.Encoder
	e.Str(epc)
	e.Blob(state)
	_, err := c.request(ctx, opRestore, &e)
	return err
}

// Finalize evicts one remote session and returns its decoded
// trajectory. The wire encoding is bit-exact, so the Result matches
// what an in-process backend would have produced.
func (c *Client) Finalize(ctx context.Context, epc string) (*core.Result, error) {
	var e codec.Encoder
	e.Str(epc)
	d, err := c.request(ctx, opFinalize, &e)
	if err != nil {
		return nil, err
	}
	res := decodeResult(&d)
	return res, d.Err()
}

// Stats snapshots the remote manager's live sessions.
func (c *Client) Stats(ctx context.Context) ([]session.Stats, error) {
	d, err := c.request(ctx, opStats, nil)
	if err != nil {
		return nil, err
	}
	n := d.Count(int(d.U32()), minStatsWire)
	out := make([]session.Stats, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, decodeStats(&d))
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return out, nil
}

// EvictIdle sweeps the remote manager.
func (c *Client) EvictIdle(ctx context.Context, maxIdle time.Duration) (int, error) {
	var e codec.Encoder
	e.I64(int64(maxIdle))
	d, err := c.request(ctx, opEvictIdle, &e)
	if err != nil {
		return 0, err
	}
	n := int(d.U32())
	return n, d.Err()
}

// Len returns the remote manager's live session count.
func (c *Client) Len(ctx context.Context) (int, error) {
	d, err := c.request(ctx, opLen, nil)
	if err != nil {
		return 0, err
	}
	n := int(d.U32())
	return n, d.Err()
}

// Ping round-trips an empty request, verifying the server is live.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.request(ctx, opPing, nil)
	return err
}

// Close flushes buffered samples, closes the remote manager, and
// returns its finalized results, then shuts the client down (ending
// every event subscription). Later calls return (nil, nil).
func (c *Client) Close(ctx context.Context) (map[string]*core.Result, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stopFlush)
	defer c.events.CloseAll()

	payload, callErr := c.call(ctx, opClose, nil, true)

	c.mu.Lock()
	c.teardownLocked(c.gen, ErrClientClosed)
	if callErr != nil {
		// The close never reached the server: whatever was still
		// buffered or unacknowledged will not be resent by anyone.
		c.lost.Add(uint64(len(c.sent) + len(c.pending)))
		c.sent, c.pending = nil, nil
	}
	c.mu.Unlock()

	if callErr != nil {
		return nil, callErr
	}
	d := codec.NewDecoder(payload)
	if err := checkStatus(&d); err != nil {
		return nil, err
	}
	// Each entry costs at least an empty EPC and an empty Result.
	n := d.Count(int(d.U32()), 2+minResultWire)
	out := make(map[string]*core.Result, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		epc := d.Str()
		if res := decodeResult(&d); res != nil {
			out[epc] = res
		}
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return out, nil
}

// Compile-time contract check: the client speaks the same
// ShardBackend contract as the in-process backends.
var _ session.ShardBackend = (*Client)(nil)
