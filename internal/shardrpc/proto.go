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
// where length covers the opcode and payload. Payloads are written with
// internal/codec, the codec checkpoints and the file journal share:
// scalars are big-endian; floats are IEEE-754 bit patterns (so a
// trajectory survives the wire bit-identically); strings are uint16
// length + bytes, except the EPC inside a dispatched sample (uint32
// length, as in the journal); snapshots are uint32 length + bytes. Dispatched samples use codec's Sample
// layout and OpenOptions use session's layout (EncodeOpenOptions), the
// same bytes the file journal writes, so the two cannot drift.
//
// Every connection begins with a version handshake: the client's first
// frame is opHello carrying the protocol version (6), a stable client
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
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"polardraw/internal/codec"
	"polardraw/internal/core"
	"polardraw/internal/geom"
	"polardraw/internal/reader"
	"polardraw/internal/session"
	"polardraw/internal/telemetry"
)

// maxFrame bounds a frame so a corrupt length prefix cannot allocate
// unbounded memory. 64 MiB comfortably holds the largest legitimate
// frame (a Close response for thousands of sessions).
const maxFrame = 64 << 20

// protoVersion is the wire protocol version exchanged in the opHello
// handshake. Both ends must name the same one; bump it whenever a frame
// layout changes. Version 6 moved samples and OpenOptions to the
// layouts the file journal writes.
const protoVersion = 6

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

// writeFrame buffers one frame in w. The caller is responsible for
// serializing writers and flushing. The header is built in w's spare
// buffer, so framing allocates nothing.
func writeFrame(w *bufio.Writer, op byte, payload []byte) error {
	hdr := binary.BigEndian.AppendUint32(w.AvailableBuffer(), uint32(1+len(payload)))
	if _, err := w.Write(append(hdr, op)); err != nil {
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

// --- message bodies ---
//
// Each body is written with internal/codec. Encoders latch their first
// error (a string over codec.MaxStr, a table too large for its count)
// in the Encoder; decoders latch theirs in the Decoder and bound every
// count by the unread payload before allocating.

// Sample batches (opDispatchSeq, after the first sequence number): a
// u32 count, then each sample in codec's shared Sample layout, the one
// the file journal writes.
func encodeSamples(e *codec.Encoder, batch []reader.Sample) {
	e.U32(uint32(len(batch)))
	for _, s := range batch {
		e.Sample(s)
	}
}

func decodeSamples(d *codec.Decoder) []reader.Sample {
	n := d.Count(int(d.U32()), codec.SampleSize)
	out := make([]reader.Sample, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, d.Sample())
	}
	return out
}

// hello is the opHello payload: the protocol version, the client
// identity, and the client's default decode OpenOptions in the shared
// session layout.
func encodeHello(e *codec.Encoder, version byte, clientID string, defaults session.OpenOptions) {
	e.U8(version)
	e.Str(clientID)
	session.EncodeOpenOptions(e, defaults)
}

func decodeHello(d *codec.Decoder) (version byte, clientID string, defaults session.OpenOptions) {
	return d.U8(), d.Str(), session.DecodeOpenOptions(d)
}

// Point lists (trajectories, commit segments): u32 count, then X and
// Y per point.
func encodePoints(e *codec.Encoder, pts geom.Polyline) {
	e.U32(uint32(len(pts)))
	for _, p := range pts {
		e.F64(p.X)
		e.F64(p.Y)
	}
}

func decodePoints(d *codec.Decoder) geom.Polyline {
	n := d.Count(int(d.U32()), 16)
	pts := make(geom.Polyline, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		pts = append(pts, geom.Vec2{X: d.F64(), Y: d.F64()})
	}
	return pts
}

// windowWire is the encoded size of one core.Window.
const windowWire = 8 + 2*(8+8+4+1) + 1

func encodeWindow(e *codec.Encoder, w core.Window) {
	e.F64(w.T)
	for a := 0; a < 2; a++ {
		e.F64(w.RSS[a])
		e.F64(w.Phase[a])
		e.U32(uint32(w.Count[a]))
		e.Bool(w.Spurious[a])
	}
	e.Bool(w.Valid)
}

func decodeWindow(d *codec.Decoder) core.Window {
	var w core.Window
	w.T = d.F64()
	for a := 0; a < 2; a++ {
		w.RSS[a] = d.F64()
		w.Phase[a] = d.F64()
		w.Count[a] = int(d.U32())
		w.Spurious[a] = d.Bool()
	}
	w.Valid = d.Bool()
	return w
}

func encodeResult(e *codec.Encoder, r *core.Result) {
	encodePoints(e, r.Trajectory)
	e.U32(uint32(len(r.Windows)))
	for _, w := range r.Windows {
		encodeWindow(e, w)
	}
	e.F64(r.Correction)
	e.U32(uint32(r.RotationalWindows))
	e.U32(uint32(r.TranslationalWindows))
	e.U32(uint32(r.SpuriousRejected))
}

// minResultWire is the encoded size of a Result with no points and no
// windows.
const minResultWire = 4 + 4 + 8 + 3*4

func decodeResult(d *codec.Decoder) *core.Result {
	r := &core.Result{Trajectory: decodePoints(d)}
	n := d.Count(int(d.U32()), windowWire)
	r.Windows = make([]core.Window, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		r.Windows = append(r.Windows, decodeWindow(d))
	}
	r.Correction = d.F64()
	r.RotationalWindows = int(d.U32())
	r.TranslationalWindows = int(d.U32())
	r.SpuriousRejected = int(d.U32())
	if d.Err() != nil {
		return nil
	}
	return r
}

// minStatsWire is the exact size of one encoded Stats record with an
// empty EPC — the floor the client's count sanity check divides by.
// TestMinStatsWirePinsEncoder ties it to encodeStats: change one,
// change both.
const minStatsWire = 131

func encodeStats(e *codec.Encoder, st session.Stats) {
	e.Str(st.EPC)
	e.U64(st.Received)
	e.U64(st.QueueDropped)
	e.U64(st.LateDropped)
	e.U32(uint32(st.Windows))
	e.F64(st.QueueMeanDepth)
	e.U32(uint32(st.QueueMaxDepth))
	e.F64(st.Live.X)
	e.F64(st.Live.Y)
	e.Bool(st.HasLive)
	e.U32(uint32(st.Decode.Steps))
	e.U32(uint32(st.Decode.ActiveLast))
	e.F64(st.Decode.ActiveMean)
	e.U32(uint32(st.Decode.ActivePeak))
	e.F64(st.Decode.Occupancy)
	e.U32(uint32(st.Decode.BeamK))
	e.U64(st.Decode.TopKPruned)
	e.U32(uint32(st.Decode.MergeCommits))
	e.U32(uint32(st.Decode.ForcedCommits))
	e.U64(st.Decode.StencilHits)
	e.U64(st.Decode.StencilMisses)
	e.I64(st.LastActive.UnixNano())
}

func decodeStats(d *codec.Decoder) session.Stats {
	st := session.Stats{
		EPC:            d.Str(),
		Received:       d.U64(),
		QueueDropped:   d.U64(),
		LateDropped:    d.U64(),
		Windows:        int(d.U32()),
		QueueMeanDepth: d.F64(),
		QueueMaxDepth:  int(d.U32()),
	}
	st.Live.X = d.F64()
	st.Live.Y = d.F64()
	st.HasLive = d.Bool()
	st.Decode.Steps = int(d.U32())
	st.Decode.ActiveLast = int(d.U32())
	st.Decode.ActiveMean = d.F64()
	st.Decode.ActivePeak = int(d.U32())
	st.Decode.Occupancy = d.F64()
	st.Decode.BeamK = int(d.U32())
	st.Decode.TopKPruned = d.U64()
	st.Decode.MergeCommits = int(d.U32())
	st.Decode.ForcedCommits = int(d.U32())
	st.Decode.StencilHits = d.U64()
	st.Decode.StencilMisses = d.U64()
	st.LastActive = time.Unix(0, d.I64())
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

// encodeStatus starts a response payload: statusOK for a nil err,
// else statusErr with the error's wire code and message, so the client
// can reconstruct it. The message is clipped to codec.MaxStr, so an
// error response always encodes.
func encodeStatus(e *codec.Encoder, err error) {
	if err == nil {
		e.U8(statusOK)
		return
	}
	msg := err.Error()
	e.U8(statusErr)
	e.U8(errCodeOf(err))
	e.Str(msg[:min(len(msg), codec.MaxStr)])
}

// decodeError reconstructs the error from a statusErr payload (the
// status byte already consumed).
func decodeError(d *codec.Decoder) error {
	code, msg := d.U8(), d.Str()
	if d.Err() != nil {
		return d.Err()
	}
	return errFromCode(code, msg)
}

// Membership wire form: epoch u64, member count u16, then per member
// name, addr, and state byte. Used by opMembership requests and the
// EventMembership push.
func encodeMembership(e *codec.Encoder, m session.Membership) {
	if len(m.Members) > math.MaxUint16 {
		e.Fail(fmt.Errorf("shardrpc: membership too large (%d members)", len(m.Members)))
		return
	}
	e.U64(m.Epoch)
	e.U16(uint16(len(m.Members)))
	for _, mem := range m.Members {
		e.Str(mem.Name)
		e.Str(mem.Addr)
		e.U8(byte(mem.State))
	}
}

func decodeMembership(d *codec.Decoder) session.Membership {
	m := session.Membership{Epoch: d.U64()}
	// Each member costs at least 5 bytes: two empty strings and the
	// state.
	n := d.Count(int(d.U16()), 5)
	m.Members = make([]session.Member, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		m.Members = append(m.Members, session.Member{
			Name:  d.Str(),
			Addr:  d.Str(),
			State: session.BackendState(d.U8()),
		})
	}
	if d.Err() != nil {
		return session.Membership{}
	}
	return m
}

// SubscribeOptions wire form (the optional opSubscribe payload): kind
// count u16 + one byte per kind, then EPC count u16 + one string per
// EPC. An empty opSubscribe payload means unfiltered, the same as zero
// options.
func encodeSubscribeOptions(e *codec.Encoder, o session.SubscribeOptions) {
	if len(o.Kinds) > math.MaxUint16 || len(o.EPCs) > math.MaxUint16 {
		e.Fail(fmt.Errorf("shardrpc: subscribe filter too large (%d kinds, %d epcs)", len(o.Kinds), len(o.EPCs)))
		return
	}
	e.U16(uint16(len(o.Kinds)))
	for _, k := range o.Kinds {
		e.U8(byte(k))
	}
	e.U16(uint16(len(o.EPCs)))
	for _, epc := range o.EPCs {
		e.Str(epc)
	}
}

func decodeSubscribeOptions(d *codec.Decoder) session.SubscribeOptions {
	var o session.SubscribeOptions
	if nk := d.Count(int(d.U16()), 1); nk > 0 {
		o.Kinds = make([]session.EventKind, 0, nk)
		for i := 0; i < nk && d.Err() == nil; i++ {
			o.Kinds = append(o.Kinds, session.EventKind(d.U8()))
		}
	}
	// Each EPC costs at least its 2-byte length prefix.
	if ne := d.Count(int(d.U16()), 2); ne > 0 {
		o.EPCs = make([]string, 0, ne)
		for i := 0; i < ne && d.Err() == nil; i++ {
			o.EPCs = append(o.EPCs, d.Str())
		}
	}
	if d.Err() != nil {
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
func encodeTelemetry(e *codec.Encoder, s telemetry.Snapshot) {
	e.U32(uint32(len(s.Counters)))
	for name, v := range s.Counters {
		e.Str(name)
		e.I64(v)
	}
	e.U32(uint32(len(s.Gauges)))
	for name, v := range s.Gauges {
		e.Str(name)
		e.F64(v)
	}
	e.U32(uint32(len(s.Histograms)))
	for name, h := range s.Histograms {
		e.Str(name)
		e.I64(h.Count)
		e.F64(h.Sum)
		nonzero := uint16(0)
		for _, c := range h.Buckets {
			if c != 0 {
				nonzero++
			}
		}
		e.U16(nonzero)
		for i, c := range h.Buckets {
			if c != 0 {
				e.U8(byte(i))
				e.I64(c)
			}
		}
	}
}

func decodeTelemetry(d *codec.Decoder) telemetry.Snapshot {
	s := telemetry.Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]telemetry.HistogramSnapshot{},
	}
	// A counter or gauge costs at least 10 bytes (empty name + value).
	nc := d.Count(int(d.U32()), 10)
	for i := 0; i < nc && d.Err() == nil; i++ {
		name := d.Str()
		s.Counters[name] = d.I64()
	}
	ng := d.Count(int(d.U32()), 10)
	for i := 0; i < ng && d.Err() == nil; i++ {
		name := d.Str()
		s.Gauges[name] = d.F64()
	}
	// A histogram costs at least 20 bytes (empty name + count + sum +
	// bucket count), a bucket 9.
	nh := d.Count(int(d.U32()), 20)
	for i := 0; i < nh && d.Err() == nil; i++ {
		name := d.Str()
		var h telemetry.HistogramSnapshot
		h.Count = d.I64()
		h.Sum = d.F64()
		nb := d.Count(int(d.U16()), 9)
		if nb > len(h.Buckets) {
			d.Fail(fmt.Errorf("shardrpc: histogram %q has %d buckets", name, nb))
		}
		for j := 0; j < nb && d.Err() == nil; j++ {
			idx := int(d.U8())
			c := d.I64()
			if idx < len(h.Buckets) {
				h.Buckets[idx] = c
			}
		}
		s.Histograms[name] = h
	}
	if d.Err() != nil {
		return telemetry.Snapshot{}
	}
	return s
}

// Event wire form: kind byte, EPC, then the kind's documented fields.
// Every kind the unified stream defines is encodable, so the remote
// stream is payload-identical to a local subscription.
func encodeEvent(e *codec.Encoder, ev session.Event) {
	e.U8(byte(ev.Kind))
	e.Str(ev.EPC)
	switch ev.Kind {
	case session.EventWindowClose:
		encodeWindow(e, ev.Window)
	case session.EventPoint:
		encodeWindow(e, ev.Window)
		e.F64(ev.Live.X)
		e.F64(ev.Live.Y)
	case session.EventCommit:
		e.U32(uint32(ev.CommitStart))
		encodePoints(e, ev.Segment)
	case session.EventEvict:
		encodeStatus(e, ev.Err)
		if ev.Err == nil {
			encodeResult(e, ev.Result)
		}
	case session.EventBackendHealth:
		e.Str(ev.Backend)
		e.Bool(ev.Healthy)
	case session.EventCheckpoint:
		e.U64(ev.Covered)
		e.Blob(ev.State)
	case session.EventMembership:
		encodeMembership(e, session.Membership{Epoch: ev.Epoch, Members: ev.Members})
	default:
		e.Fail(fmt.Errorf("shardrpc: unencodable event kind %v", ev.Kind))
	}
}

func decodeEvent(d *codec.Decoder) session.Event {
	ev := session.Event{
		Kind: session.EventKind(d.U8()),
		EPC:  d.Str(),
	}
	switch ev.Kind {
	case session.EventWindowClose:
		ev.Window = decodeWindow(d)
	case session.EventPoint:
		ev.Window = decodeWindow(d)
		ev.Live.X = d.F64()
		ev.Live.Y = d.F64()
	case session.EventCommit:
		ev.CommitStart = int(d.U32())
		ev.Segment = decodePoints(d)
	case session.EventEvict:
		if d.U8() == statusErr {
			ev.Err = decodeError(d)
		} else {
			ev.Result = decodeResult(d)
		}
	case session.EventBackendHealth:
		ev.Backend = d.Str()
		ev.Healthy = d.Bool()
	case session.EventCheckpoint:
		ev.Covered = d.U64()
		ev.State = d.Blob()
	case session.EventMembership:
		m := decodeMembership(d)
		ev.Epoch, ev.Members = m.Epoch, m.Members
	default:
		d.Fail(fmt.Errorf("shardrpc: unknown event kind %d", ev.Kind))
	}
	if d.Err() != nil {
		return session.Event{}
	}
	return ev
}
