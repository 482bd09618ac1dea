// Package shardrpc puts a TCP boundary at the session tier's shard
// interface, so shards can live in separate processes and hosts: a
// Server hosts one session.Manager per process; a Client implements
// session.ShardBackend over a long-lived connection, ready to sit
// behind a session.Router next to in-process backends.
//
// # Wire protocol
//
// The protocol is a compact length-prefixed binary framing, symmetric
// in both directions:
//
//	frame  := length(uint32 BE) opcode(byte) payload
//
// where length covers the opcode and payload. Scalars are big-endian;
// floats are IEEE-754 bit patterns (so a trajectory survives the wire
// bit-identically); strings are uint16 length + bytes.
//
// Every connection begins with a version handshake: the client's first
// frame is opHello carrying the protocol version, a stable client
// identity, and the client's default decode OpenOptions, answered by an
// opResp echoing the version. There is exactly one dialect: a server
// answers a hello naming any other version (or one it cannot parse, or
// a first frame that is not a hello) with ErrVersionMismatch and drops
// the connection, and a client refuses a reply naming any other
// version. Client and server build from one module, so a mismatch
// means a misdeployed binary and surfaces as that one explicit error,
// never as frame corruption.
//
// After the handshake, request frames flow client→server; the server
// answers each request frame that expects a reply with exactly one
// opResp frame, in request order, so responses need no correlation IDs
// — a client matches them FIFO. Dispatch and subscribe frames are
// one-way (no response), which is what makes sample streaming cheap: a
// dispatch costs one buffered write, and backpressure propagates
// through TCP when the server's session queues fill. opEvent frames
// are server→client pushes (the unified session.Event stream for
// subscribed connections) and may interleave with responses; the
// opcode's high bits distinguish the two.
//
// # Durable dispatch
//
// Samples are dispatched with opDispatchSeq: each sample carries an
// implicit per-client sequence number (the frame holds the first
// sample's number; the rest are consecutive), and the server pushes
// opAck frames reporting the highest sequence it has settled plus a
// cumulative count of samples its manager rejected. The client keeps
// every unacknowledged sample buffered and resends the tail after a
// reconnect; the server's per-client applied-sequence state makes the
// resend idempotent (duplicates are skipped, not decoded twice). A
// sample is counted lost only when the server rejects it or the resend
// buffer ages it out — never because a connection happened to drop.
// opExport and opRestore carry serialized mid-stroke session state for
// checkpoint/handoff flows, and EventCheckpoint pushes carry
// shard-emitted snapshots to a journaling router.
//
// Response payloads start with a status byte; failures carry a code
// that round-trips the session/core sentinel taxonomy, so
// errors.Is(err, session.ErrUnknownEPC) works across the wire.
package shardrpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"polardraw/internal/core"
	"polardraw/internal/geom"
	"polardraw/internal/reader"
	"polardraw/internal/session"
	"polardraw/internal/telemetry"
)

// timeFromUnixNano rebuilds a wall-clock timestamp from its wire form.
func timeFromUnixNano(ns int64) time.Time { return time.Unix(0, ns) }

// maxFrame bounds a frame so a corrupt length prefix cannot allocate
// unbounded memory. 64 MiB comfortably holds the largest legitimate
// frame (a Close response for thousands of sessions).
const maxFrame = 64 << 20

// protoVersion is the wire protocol version exchanged in the opHello
// handshake. Both ends must name the same one; bump it whenever a frame
// layout changes.
const protoVersion = 5

// Opcodes. Requests occupy the low range; 0x40 marks server pushes,
// 0x80 marks responses.
const (
	opFinalize  byte = 0x02
	opStats     byte = 0x03
	opEvictIdle byte = 0x04
	opLen       byte = 0x05
	opClose     byte = 0x06
	opSubscribe byte = 0x07 // one-way: request opEvent pushes
	opPing      byte = 0x08
	opHello     byte = 0x09 // version handshake; MUST be the first frame
	opOpen      byte = 0x0a // per-session open with OpenOptions

	opDispatchSeq byte = 0x0b // one-way: sequence-numbered sample batch
	opExport      byte = 0x0c // remove a session, return its snapshot
	opRestore     byte = 0x0d // rebuild a session from a snapshot
	opMembership  byte = 0x0e // set the epoch-numbered cluster membership
	opTelemetry   byte = 0x0f // snapshot the shard's telemetry registry

	opEvent byte = 0x41 // server push: one unified session.Event
	opAck   byte = 0x42 // server push: dispatch-sequence acknowledgement
	opResp  byte = 0x80 // response to the oldest pending request
)

// Response status bytes and error codes.
const (
	statusOK  byte = 0
	statusErr byte = 1

	errCodeGeneric      byte = 0
	errCodeUnknown      byte = 1
	errCodeTooFew       byte = 2
	errCodeClosed       byte = 3
	errCodeShardClosing byte = 4
	errCodeSessionLimit byte = 5
	errCodeVersion      byte = 6
	errCodeUnavailable  byte = 7
	errCodeOverloaded   byte = 8
	errCodeStaleEpoch   byte = 9
)

// ErrShardClosing is returned for requests that reach a shard server
// whose manager has already been closed by a prior opClose.
var ErrShardClosing = errors.New("shardrpc: shard manager closed")

// ErrVersionMismatch is returned when the connect-time version
// handshake fails: the peer names a different shardrpc protocol
// version or sends a hello that does not parse. The wrapped message
// names both versions when they are known.
var ErrVersionMismatch = errors.New("shardrpc: protocol version mismatch")

// writeFrame writes one frame. The caller is responsible for
// serializing writers and flushing any buffering.
func writeFrame(w io.Writer, op byte, payload []byte) error {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(1+len(payload)))
	hdr[4] = op
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads one frame, enforcing the size bound.
func readFrame(r io.Reader) (op byte, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrame {
		return 0, nil, fmt.Errorf("shardrpc: bad frame length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	return buf[0], buf[1:], nil
}

// enc appends big-endian primitives to a byte slice.
type enc struct{ b []byte }

func (e *enc) u8(v byte) { e.b = append(e.b, v) }
func (e *enc) u16(v uint16) {
	e.b = binary.BigEndian.AppendUint16(e.b, v)
}
func (e *enc) u32(v uint32) {
	e.b = binary.BigEndian.AppendUint32(e.b, v)
}
func (e *enc) u64(v uint64) {
	e.b = binary.BigEndian.AppendUint64(e.b, v)
}
func (e *enc) i64(v int64)   { e.u64(uint64(v)) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *enc) str(s string) error {
	if len(s) > math.MaxUint16 {
		return fmt.Errorf("shardrpc: string too long (%d bytes)", len(s))
	}
	e.u16(uint16(len(s)))
	e.b = append(e.b, s...)
	return nil
}

// bytes writes a u32-length-prefixed blob (session snapshots exceed
// the u16 string bound).
func (e *enc) bytes(p []byte) {
	e.u32(uint32(len(p)))
	e.b = append(e.b, p...)
}

// dec consumes big-endian primitives from a byte slice; the first
// truncation latches err and every later read returns zero values.
type dec struct {
	b   []byte
	err error
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b) < n {
		d.err = io.ErrUnexpectedEOF
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *dec) u8() byte {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}
func (d *dec) u16() uint16 {
	if b := d.take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}
func (d *dec) u32() uint32 {
	if b := d.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}
func (d *dec) u64() uint64 {
	if b := d.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}
func (d *dec) i64() int64    { return int64(d.u64()) }
func (d *dec) f64() float64  { return math.Float64frombits(d.u64()) }
func (d *dec) boolean() bool { return d.u8() != 0 }
func (d *dec) str() string {
	n := int(d.u16())
	if b := d.take(n); b != nil {
		return string(b)
	}
	return ""
}

// bytes reads a u32-length-prefixed blob, copying out of the frame
// buffer.
func (d *dec) bytes() []byte {
	n := int(d.u32())
	if b := d.take(n); b != nil {
		return append([]byte(nil), b...)
	}
	return nil
}

// remaining reports unread payload bytes (a well-formed message ends
// with zero).
func (d *dec) remaining() int { return len(d.b) }

// --- message bodies ---

func encodeSample(e *enc, s reader.Sample) error {
	e.f64(s.T)
	e.u32(uint32(int32(s.Antenna)))
	e.f64(s.RSS)
	e.f64(s.Phase)
	return e.str(s.EPC)
}

func decodeSample(d *dec) reader.Sample {
	return reader.Sample{
		T:       d.f64(),
		Antenna: int(int32(d.u32())),
		RSS:     d.f64(),
		Phase:   d.f64(),
		EPC:     d.str(),
	}
}

func encodeSamples(e *enc, batch []reader.Sample) error {
	e.u32(uint32(len(batch)))
	for _, s := range batch {
		if err := encodeSample(e, s); err != nil {
			return err
		}
	}
	return nil
}

func decodeSamples(d *dec) []reader.Sample {
	n := int(d.u32())
	if d.err != nil || n < 0 {
		return nil
	}
	// Guard against a hostile count: each sample is ≥ 30 bytes.
	if n > d.remaining()/30+1 {
		d.err = io.ErrUnexpectedEOF
		return nil
	}
	out := make([]reader.Sample, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, decodeSample(d))
	}
	return out
}

func encodeWindow(e *enc, w core.Window) {
	e.f64(w.T)
	for a := 0; a < 2; a++ {
		e.f64(w.RSS[a])
		e.f64(w.Phase[a])
		e.u32(uint32(w.Count[a]))
		e.boolean(w.Spurious[a])
	}
	e.boolean(w.Valid)
}

func decodeWindow(d *dec) core.Window {
	var w core.Window
	w.T = d.f64()
	for a := 0; a < 2; a++ {
		w.RSS[a] = d.f64()
		w.Phase[a] = d.f64()
		w.Count[a] = int(d.u32())
		w.Spurious[a] = d.boolean()
	}
	w.Valid = d.boolean()
	return w
}

func encodeResult(e *enc, r *core.Result) {
	e.u32(uint32(len(r.Trajectory)))
	for _, p := range r.Trajectory {
		e.f64(p.X)
		e.f64(p.Y)
	}
	e.u32(uint32(len(r.Windows)))
	for _, w := range r.Windows {
		encodeWindow(e, w)
	}
	e.f64(r.Correction)
	e.u32(uint32(r.RotationalWindows))
	e.u32(uint32(r.TranslationalWindows))
	e.u32(uint32(r.SpuriousRejected))
}

func decodeResult(d *dec) *core.Result {
	r := &core.Result{}
	n := int(d.u32())
	if d.err != nil || n > d.remaining()/16+1 {
		d.err = io.ErrUnexpectedEOF
		return nil
	}
	r.Trajectory = make(geom.Polyline, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		r.Trajectory = append(r.Trajectory, geom.Vec2{X: d.f64(), Y: d.f64()})
	}
	n = int(d.u32())
	if d.err != nil || n > d.remaining()/49+1 {
		d.err = io.ErrUnexpectedEOF
		return nil
	}
	r.Windows = make([]core.Window, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		r.Windows = append(r.Windows, decodeWindow(d))
	}
	r.Correction = d.f64()
	r.RotationalWindows = int(d.u32())
	r.TranslationalWindows = int(d.u32())
	r.SpuriousRejected = int(d.u32())
	if d.err != nil {
		return nil
	}
	return r
}

// minStatsWire is the exact size of one encoded Stats record with an
// empty EPC — the floor the client's count sanity check divides by.
// TestMinStatsWirePinsEncoder ties it to encodeStats: change one,
// change both.
const minStatsWire = 131

func encodeStats(e *enc, st session.Stats) error {
	if err := e.str(st.EPC); err != nil {
		return err
	}
	e.u64(st.Received)
	e.u64(st.QueueDropped)
	e.u64(st.LateDropped)
	e.u32(uint32(st.Windows))
	e.f64(st.QueueMeanDepth)
	e.u32(uint32(st.QueueMaxDepth))
	e.f64(st.Live.X)
	e.f64(st.Live.Y)
	e.boolean(st.HasLive)
	e.u32(uint32(st.Decode.Steps))
	e.u32(uint32(st.Decode.ActiveLast))
	e.f64(st.Decode.ActiveMean)
	e.u32(uint32(st.Decode.ActivePeak))
	e.f64(st.Decode.Occupancy)
	e.u32(uint32(st.Decode.BeamK))
	e.u64(st.Decode.TopKPruned)
	e.u32(uint32(st.Decode.MergeCommits))
	e.u32(uint32(st.Decode.ForcedCommits))
	e.u64(st.Decode.StencilHits)
	e.u64(st.Decode.StencilMisses)
	e.i64(st.LastActive.UnixNano())
	return nil
}

func decodeStats(d *dec) session.Stats {
	st := session.Stats{
		EPC:            d.str(),
		Received:       d.u64(),
		QueueDropped:   d.u64(),
		LateDropped:    d.u64(),
		Windows:        int(d.u32()),
		QueueMeanDepth: d.f64(),
		QueueMaxDepth:  int(d.u32()),
	}
	st.Live.X = d.f64()
	st.Live.Y = d.f64()
	st.HasLive = d.boolean()
	st.Decode.Steps = int(d.u32())
	st.Decode.ActiveLast = int(d.u32())
	st.Decode.ActiveMean = d.f64()
	st.Decode.ActivePeak = int(d.u32())
	st.Decode.Occupancy = d.f64()
	st.Decode.BeamK = int(d.u32())
	st.Decode.TopKPruned = d.u64()
	st.Decode.MergeCommits = int(d.u32())
	st.Decode.ForcedCommits = int(d.u32())
	st.Decode.StencilHits = d.u64()
	st.Decode.StencilMisses = d.u64()
	st.LastActive = timeFromUnixNano(d.i64())
	return st
}

// errCodeOf maps the session/core sentinel taxonomy onto wire codes.
func errCodeOf(err error) byte {
	switch {
	case errors.Is(err, session.ErrUnknownEPC):
		return errCodeUnknown
	case errors.Is(err, core.ErrTooFewSamples):
		return errCodeTooFew
	case errors.Is(err, session.ErrClosed):
		return errCodeClosed
	case errors.Is(err, ErrShardClosing):
		return errCodeShardClosing
	case errors.Is(err, session.ErrSessionLimit):
		return errCodeSessionLimit
	case errors.Is(err, ErrVersionMismatch):
		return errCodeVersion
	case errors.Is(err, session.ErrBackendUnavailable):
		return errCodeUnavailable
	case errors.Is(err, session.ErrOverloaded):
		return errCodeOverloaded
	case errors.Is(err, session.ErrStaleEpoch):
		return errCodeStaleEpoch
	default:
		return errCodeGeneric
	}
}

// errFromCode reconstructs the sentinel for a wire code, falling back
// to the carried message for generic errors. Sentinels are returned
// bare so errors.Is works identically on both ends of the wire.
func errFromCode(code byte, msg string) error {
	switch code {
	case errCodeUnknown:
		return session.ErrUnknownEPC
	case errCodeTooFew:
		return core.ErrTooFewSamples
	case errCodeClosed:
		return session.ErrClosed
	case errCodeShardClosing:
		return ErrShardClosing
	case errCodeSessionLimit:
		return session.ErrSessionLimit
	case errCodeVersion:
		return fmt.Errorf("%w: %s", ErrVersionMismatch, msg)
	case errCodeUnavailable:
		return fmt.Errorf("%w: %s", session.ErrBackendUnavailable, msg)
	case errCodeOverloaded:
		return fmt.Errorf("%w: %s", session.ErrOverloaded, msg)
	case errCodeStaleEpoch:
		return fmt.Errorf("%w: %s", session.ErrStaleEpoch, msg)
	default:
		return errors.New(msg)
	}
}

// encodeError maps an error onto a statusErr response payload so the
// client can reconstruct it.
func encodeError(e *enc, err error) {
	e.u8(statusErr)
	e.u8(errCodeOf(err))
	_ = e.str(err.Error())
}

// decodeError reconstructs the error from a statusErr payload (the
// status byte already consumed).
func decodeError(d *dec) error {
	code := d.u8()
	msg := d.str()
	if d.err != nil {
		return d.err
	}
	return errFromCode(code, msg)
}

// OpenOptions wire form: one presence bitmask byte, then the set
// fields in bit order. Pointer-typed options survive the round trip
// exactly — including explicit zeroes, which the bitmask keeps
// distinct from "inherit the backend default" — so a remote open is
// bit-equivalent to a local one.
const (
	optBeamTopK byte = 1 << iota
	optCommitLag
	optBeamAdaptive
	optWindow
	optSpuriousPhase
)

func encodeOpenOptions(e *enc, o session.OpenOptions) {
	var mask byte
	if o.BeamTopK != nil {
		mask |= optBeamTopK
	}
	if o.CommitLag != nil {
		mask |= optCommitLag
	}
	if o.BeamAdaptive != nil {
		mask |= optBeamAdaptive
	}
	if o.Window != nil {
		mask |= optWindow
	}
	if o.SpuriousPhase != nil {
		mask |= optSpuriousPhase
	}
	e.u8(mask)
	if o.BeamTopK != nil {
		e.u32(uint32(int32(*o.BeamTopK)))
	}
	if o.CommitLag != nil {
		e.u32(uint32(int32(*o.CommitLag)))
	}
	if o.BeamAdaptive != nil {
		e.boolean(*o.BeamAdaptive)
	}
	if o.Window != nil {
		e.f64(*o.Window)
	}
	if o.SpuriousPhase != nil {
		e.f64(*o.SpuriousPhase)
	}
}

func decodeOpenOptions(d *dec) session.OpenOptions {
	var o session.OpenOptions
	mask := d.u8()
	if mask&optBeamTopK != 0 {
		v := int(int32(d.u32()))
		o.BeamTopK = &v
	}
	if mask&optCommitLag != 0 {
		v := int(int32(d.u32()))
		o.CommitLag = &v
	}
	if mask&optBeamAdaptive != 0 {
		v := d.boolean()
		o.BeamAdaptive = &v
	}
	if mask&optWindow != 0 {
		v := d.f64()
		o.Window = &v
	}
	if mask&optSpuriousPhase != 0 {
		v := d.f64()
		o.SpuriousPhase = &v
	}
	if d.err != nil {
		return session.OpenOptions{}
	}
	return o
}

// Membership wire form: epoch u64, member count u16, then per member
// name, addr, and state byte. Used by opMembership requests and the
// EventMembership push.
func encodeMembership(e *enc, m session.Membership) error {
	e.u64(m.Epoch)
	if len(m.Members) > 0xffff {
		return fmt.Errorf("shardrpc: membership too large (%d members)", len(m.Members))
	}
	e.u16(uint16(len(m.Members)))
	for _, mem := range m.Members {
		if err := e.str(mem.Name); err != nil {
			return err
		}
		if err := e.str(mem.Addr); err != nil {
			return err
		}
		e.u8(byte(mem.State))
	}
	return nil
}

func decodeMembership(d *dec) session.Membership {
	m := session.Membership{Epoch: d.u64()}
	n := int(d.u16())
	// Each member costs at least 5 bytes (two empty strings + state);
	// reject hostile counts before allocating.
	if d.err != nil || n > d.remaining()/5+1 {
		d.err = io.ErrUnexpectedEOF
		return session.Membership{}
	}
	m.Members = make([]session.Member, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		m.Members = append(m.Members, session.Member{
			Name:  d.str(),
			Addr:  d.str(),
			State: session.BackendState(d.u8()),
		})
	}
	if d.err != nil {
		return session.Membership{}
	}
	return m
}

// SubscribeOptions wire form (the optional opSubscribe payload): kind
// count u16 + one byte per kind, then EPC count u16 + one string per
// EPC. An empty opSubscribe payload means unfiltered, the same as zero
// options.
func encodeSubscribeOptions(e *enc, o session.SubscribeOptions) error {
	if len(o.Kinds) > 0xffff || len(o.EPCs) > 0xffff {
		return fmt.Errorf("shardrpc: subscribe filter too large (%d kinds, %d epcs)", len(o.Kinds), len(o.EPCs))
	}
	e.u16(uint16(len(o.Kinds)))
	for _, k := range o.Kinds {
		e.u8(byte(k))
	}
	e.u16(uint16(len(o.EPCs)))
	for _, epc := range o.EPCs {
		if err := e.str(epc); err != nil {
			return err
		}
	}
	return nil
}

func decodeSubscribeOptions(d *dec) session.SubscribeOptions {
	var o session.SubscribeOptions
	nk := int(d.u16())
	if d.err != nil || nk > d.remaining() {
		d.err = io.ErrUnexpectedEOF
		return session.SubscribeOptions{}
	}
	if nk > 0 {
		o.Kinds = make([]session.EventKind, 0, nk)
		for i := 0; i < nk && d.err == nil; i++ {
			o.Kinds = append(o.Kinds, session.EventKind(d.u8()))
		}
	}
	ne := int(d.u16())
	// Each EPC costs at least 2 bytes (an empty string's length prefix).
	if d.err != nil || ne > d.remaining()/2+1 {
		d.err = io.ErrUnexpectedEOF
		return session.SubscribeOptions{}
	}
	if ne > 0 {
		o.EPCs = make([]string, 0, ne)
		for i := 0; i < ne && d.err == nil; i++ {
			o.EPCs = append(o.EPCs, d.str())
		}
	}
	if d.err != nil {
		return session.SubscribeOptions{}
	}
	return o
}

// Telemetry snapshot wire form (opTelemetry responses): counter
// count u32 + (name, i64) pairs; gauge count u32 + (name, f64) pairs;
// histogram count u32 + per histogram name, observation count u64,
// sum f64, and a sparse bucket list (u16 count of non-empty buckets,
// each a u8 index + u64 count). Sparse buckets keep an idle shard's
// snapshot tiny while round-tripping the full distribution.
func encodeTelemetry(e *enc, s telemetry.Snapshot) error {
	e.u32(uint32(len(s.Counters)))
	for name, v := range s.Counters {
		if err := e.str(name); err != nil {
			return err
		}
		e.i64(v)
	}
	e.u32(uint32(len(s.Gauges)))
	for name, v := range s.Gauges {
		if err := e.str(name); err != nil {
			return err
		}
		e.f64(v)
	}
	e.u32(uint32(len(s.Histograms)))
	for name, h := range s.Histograms {
		if err := e.str(name); err != nil {
			return err
		}
		e.u64(uint64(h.Count))
		e.f64(h.Sum)
		nonzero := uint16(0)
		for _, c := range h.Buckets {
			if c != 0 {
				nonzero++
			}
		}
		e.u16(nonzero)
		for i, c := range h.Buckets {
			if c != 0 {
				e.u8(byte(i))
				e.u64(uint64(c))
			}
		}
	}
	return nil
}

func decodeTelemetry(d *dec) telemetry.Snapshot {
	s := telemetry.Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]telemetry.HistogramSnapshot{},
	}
	nc := int(d.u32())
	// Each counter costs at least 10 bytes (empty name + i64).
	if d.err != nil || nc > d.remaining()/10+1 {
		d.err = io.ErrUnexpectedEOF
		return telemetry.Snapshot{}
	}
	for i := 0; i < nc && d.err == nil; i++ {
		name := d.str()
		s.Counters[name] = d.i64()
	}
	ng := int(d.u32())
	if d.err != nil || ng > d.remaining()/10+1 {
		d.err = io.ErrUnexpectedEOF
		return telemetry.Snapshot{}
	}
	for i := 0; i < ng && d.err == nil; i++ {
		name := d.str()
		s.Gauges[name] = d.f64()
	}
	nh := int(d.u32())
	// Each histogram costs at least 20 bytes (empty name + count + sum
	// + bucket count).
	if d.err != nil || nh > d.remaining()/20+1 {
		d.err = io.ErrUnexpectedEOF
		return telemetry.Snapshot{}
	}
	for i := 0; i < nh && d.err == nil; i++ {
		name := d.str()
		var h telemetry.HistogramSnapshot
		h.Count = int64(d.u64())
		h.Sum = d.f64()
		nb := int(d.u16())
		if d.err != nil || nb > len(h.Buckets) {
			d.err = io.ErrUnexpectedEOF
			return telemetry.Snapshot{}
		}
		for j := 0; j < nb && d.err == nil; j++ {
			idx := int(d.u8())
			c := int64(d.u64())
			if idx < len(h.Buckets) {
				h.Buckets[idx] = c
			}
		}
		s.Histograms[name] = h
	}
	if d.err != nil {
		return telemetry.Snapshot{}
	}
	return s
}

// Event wire form: kind byte, EPC, then the kind's documented fields.
// Every kind the unified stream defines is encodable, so the remote
// stream is payload-identical to a local subscription.
func encodeEvent(e *enc, ev session.Event) error {
	e.u8(byte(ev.Kind))
	if err := e.str(ev.EPC); err != nil {
		return err
	}
	switch ev.Kind {
	case session.EventWindowClose:
		encodeWindow(e, ev.Window)
	case session.EventPoint:
		encodeWindow(e, ev.Window)
		e.f64(ev.Live.X)
		e.f64(ev.Live.Y)
	case session.EventCommit:
		e.u32(uint32(ev.CommitStart))
		e.u32(uint32(len(ev.Segment)))
		for _, p := range ev.Segment {
			e.f64(p.X)
			e.f64(p.Y)
		}
	case session.EventEvict:
		if ev.Err != nil {
			e.u8(statusErr)
			e.u8(errCodeOf(ev.Err))
			return e.str(ev.Err.Error())
		}
		e.u8(statusOK)
		encodeResult(e, ev.Result)
	case session.EventBackendHealth:
		if err := e.str(ev.Backend); err != nil {
			return err
		}
		e.boolean(ev.Healthy)
	case session.EventCheckpoint:
		e.u64(ev.Covered)
		e.bytes(ev.State)
	case session.EventMembership:
		return encodeMembership(e, session.Membership{Epoch: ev.Epoch, Members: ev.Members})
	default:
		return fmt.Errorf("shardrpc: unencodable event kind %v", ev.Kind)
	}
	return nil
}

func decodeEvent(d *dec) session.Event {
	ev := session.Event{
		Kind: session.EventKind(d.u8()),
		EPC:  d.str(),
	}
	switch ev.Kind {
	case session.EventWindowClose:
		ev.Window = decodeWindow(d)
	case session.EventPoint:
		ev.Window = decodeWindow(d)
		ev.Live.X = d.f64()
		ev.Live.Y = d.f64()
	case session.EventCommit:
		ev.CommitStart = int(d.u32())
		n := int(d.u32())
		if d.err != nil || n > d.remaining()/16+1 {
			d.err = io.ErrUnexpectedEOF
			return session.Event{}
		}
		ev.Segment = make(geom.Polyline, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			ev.Segment = append(ev.Segment, geom.Vec2{X: d.f64(), Y: d.f64()})
		}
	case session.EventEvict:
		if d.u8() == statusErr {
			code := d.u8()
			msg := d.str()
			if d.err == nil {
				ev.Err = errFromCode(code, msg)
			}
		} else {
			ev.Result = decodeResult(d)
		}
	case session.EventBackendHealth:
		ev.Backend = d.str()
		ev.Healthy = d.boolean()
	case session.EventCheckpoint:
		ev.Covered = d.u64()
		ev.State = d.bytes()
	case session.EventMembership:
		m := decodeMembership(d)
		ev.Epoch, ev.Members = m.Epoch, m.Members
	default:
		d.err = fmt.Errorf("shardrpc: unknown event kind %d", ev.Kind)
	}
	if d.err != nil {
		return session.Event{}
	}
	return ev
}
