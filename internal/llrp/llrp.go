// Package llrp implements a compact dialect of the Low Level Reader
// Protocol (LLRP, the EPCglobal reader-control protocol the paper's
// tag-interrogation module speaks to the ImpinJ reader) sufficient to
// stream tag reports from a (simulated) reader to the tracking
// pipeline over TCP.
//
// Framing follows real LLRP: every message starts with a 10-byte
// header -- a 16-bit field packing 3 reserved bits, a 3-bit protocol
// version and a 10-bit message type, then a 32-bit total length
// (including the header) and a 32-bit message ID. Message payloads are
// sequences of TLV parameters (16-bit type, 16-bit length including
// the 4-byte parameter header, value).
//
// Deliberate simplifications, documented for anyone comparing against
// the spec: PeakRSSI is carried as a 16-bit centi-dBm value instead of
// the spec's 8-bit whole dBm (our tracker needs the reader's 0.5 dB
// resolution), and the RF phase angle rides in a custom parameter the
// way ImpinJ vendor extensions do.
package llrp

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Protocol version carried in every header.
const Version = 1

// Message types (the subset of LLRP this dialect speaks).
const (
	MsgReaderEventNotification = 63
	MsgROAccessReport          = 61
	MsgKeepalive               = 62
	MsgKeepaliveAck            = 72
	MsgStartROSpec             = 22
	MsgStartROSpecResponse     = 32
	MsgCloseConnection         = 14
	MsgCloseConnectionResponse = 4
)

// Parameter types.
const (
	ParamTagReportData     = 240
	ParamEPCData           = 241
	ParamAntennaID         = 222
	ParamPeakRSSI          = 226
	ParamFirstSeenUTC      = 2
	ParamImpinjPhaseAngle  = 1023 // custom extension, 12-bit phase
	ParamConnectionAttempt = 256
	ParamLLRPStatus        = 287
)

// HeaderLen is the fixed LLRP message header size in bytes.
const HeaderLen = 10

// MaxMessageLen bounds accepted messages to keep a malformed peer from
// forcing huge allocations.
const MaxMessageLen = 1 << 20

// Message is one decoded LLRP message.
type Message struct {
	Type    uint16
	ID      uint32
	Payload []byte
}

// Errors returned by the codec.
var (
	ErrBadVersion  = errors.New("llrp: unsupported protocol version")
	ErrTooLong     = errors.New("llrp: message exceeds maximum length")
	ErrTruncated   = errors.New("llrp: truncated message or parameter")
	ErrUnknownType = errors.New("llrp: unexpected message type")
)

// WriteMessage frames and writes one message.
func WriteMessage(w io.Writer, m Message) error {
	if len(m.Payload)+HeaderLen > MaxMessageLen {
		return ErrTooLong
	}
	var hdr [HeaderLen]byte
	binary.BigEndian.PutUint16(hdr[0:2], uint16(Version)<<10|m.Type&0x3ff)
	binary.BigEndian.PutUint32(hdr[2:6], uint32(HeaderLen+len(m.Payload)))
	binary.BigEndian.PutUint32(hdr[6:10], m.ID)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(m.Payload) > 0 {
		if _, err := w.Write(m.Payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadMessage reads and decodes one message.
func ReadMessage(r io.Reader) (Message, error) {
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, err
	}
	vt := binary.BigEndian.Uint16(hdr[0:2])
	if ver := (vt >> 10) & 0x7; ver != Version {
		return Message{}, fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	length := binary.BigEndian.Uint32(hdr[2:6])
	if length < HeaderLen {
		return Message{}, ErrTruncated
	}
	if length > MaxMessageLen {
		return Message{}, ErrTooLong
	}
	m := Message{
		Type: vt & 0x3ff,
		ID:   binary.BigEndian.Uint32(hdr[6:10]),
	}
	if payloadLen := int(length) - HeaderLen; payloadLen > 0 {
		m.Payload = make([]byte, payloadLen)
		if _, err := io.ReadFull(r, m.Payload); err != nil {
			return Message{}, err
		}
	}
	return m, nil
}

// appendParam appends one TLV parameter to buf.
func appendParam(buf []byte, typ uint16, value []byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint16(hdr[0:2], typ&0x3ff)
	binary.BigEndian.PutUint16(hdr[2:4], uint16(4+len(value)))
	buf = append(buf, hdr[:]...)
	return append(buf, value...)
}

// nextParam splits the first TLV parameter off b, returning its type,
// its value and the bytes after it.
func nextParam(b []byte) (typ uint16, value, rest []byte, err error) {
	if len(b) < 4 {
		return 0, nil, nil, ErrTruncated
	}
	typ = binary.BigEndian.Uint16(b[0:2]) & 0x3ff
	l := int(binary.BigEndian.Uint16(b[2:4]))
	if l < 4 || l > len(b) {
		return 0, nil, nil, ErrTruncated
	}
	return typ, b[4:l], b[l:], nil
}

// TagReport is one tag observation as carried in an RO_ACCESS_REPORT.
type TagReport struct {
	// EPC is the tag identifier, lowercase hex.
	EPC string
	// AntennaID is 1-based, as in real LLRP.
	AntennaID uint16
	// RSSICentiDBm is the peak RSSI in hundredths of a dBm.
	RSSICentiDBm int16
	// Phase12 is the RF phase angle on the reader's 12-bit grid:
	// radians = Phase12 * 2*pi / 4096.
	Phase12 uint16
	// TimestampMicros is microseconds since the reader epoch.
	TimestampMicros uint64
}

// encodeTagReportData renders one TagReportData parameter.
func encodeTagReportData(tr TagReport) ([]byte, error) {
	epc, err := hex.DecodeString(tr.EPC)
	if err != nil {
		return nil, fmt.Errorf("llrp: bad EPC %q: %w", tr.EPC, err)
	}
	var inner []byte
	inner = appendParam(inner, ParamEPCData, epc)
	inner = appendParam(inner, ParamAntennaID, binary.BigEndian.AppendUint16(nil, tr.AntennaID))
	inner = appendParam(inner, ParamPeakRSSI, binary.BigEndian.AppendUint16(nil, uint16(tr.RSSICentiDBm)))
	inner = appendParam(inner, ParamImpinjPhaseAngle, binary.BigEndian.AppendUint16(nil, tr.Phase12))
	inner = appendParam(inner, ParamFirstSeenUTC, binary.BigEndian.AppendUint64(nil, tr.TimestampMicros))
	return appendParam(nil, ParamTagReportData, inner), nil
}

// EncodeROAccessReport packs tag reports into one RO_ACCESS_REPORT
// message payload.
func EncodeROAccessReport(id uint32, reports []TagReport) (Message, error) {
	var payload []byte
	for _, tr := range reports {
		b, err := encodeTagReportData(tr)
		if err != nil {
			return Message{}, err
		}
		payload = append(payload, b...)
	}
	return Message{Type: MsgROAccessReport, ID: id, Payload: payload}, nil
}

// DecodeROAccessReport extracts the tag reports from an
// RO_ACCESS_REPORT message. It walks the TLV parameters in place and
// allocates twice per message, whatever its report count: the result,
// and one string that every report's EPC is a substring of.
func DecodeROAccessReport(m Message) ([]TagReport, error) {
	if m.Type != MsgROAccessReport {
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, m.Type)
	}
	// First walk: check every parameter header, count the reports and
	// size their EPCs.
	n, epcLen := 0, 0
	for b := m.Payload; len(b) > 0; {
		typ, value, rest, err := nextParam(b)
		if err != nil {
			return nil, err
		}
		b = rest
		if typ != ParamTagReportData {
			continue
		}
		n++
		for len(value) > 0 {
			typ, epc, rest, err := nextParam(value)
			if err != nil {
				return nil, err
			}
			if typ == ParamEPCData {
				epcLen += hex.EncodedLen(len(epc))
			}
			value = rest
		}
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]TagReport, 0, n)
	var epcs strings.Builder
	epcs.Grow(epcLen)
	for b := m.Payload; len(b) > 0; {
		typ, value, rest, _ := nextParam(b)
		b = rest
		if typ != ParamTagReportData {
			continue
		}
		var tr TagReport
		for len(value) > 0 {
			typ, v, rest, _ := nextParam(value)
			value = rest
			switch typ {
			case ParamEPCData:
				start := epcs.Len()
				appendHex(&epcs, v)
				// The builder only appends, so the bytes behind an
				// earlier String stay as they were.
				tr.EPC = epcs.String()[start:]
			case ParamAntennaID:
				if len(v) != 2 {
					return nil, ErrTruncated
				}
				tr.AntennaID = binary.BigEndian.Uint16(v)
			case ParamPeakRSSI:
				if len(v) != 2 {
					return nil, ErrTruncated
				}
				tr.RSSICentiDBm = int16(binary.BigEndian.Uint16(v))
			case ParamImpinjPhaseAngle:
				if len(v) != 2 {
					return nil, ErrTruncated
				}
				tr.Phase12 = binary.BigEndian.Uint16(v)
			case ParamFirstSeenUTC:
				if len(v) != 8 {
					return nil, ErrTruncated
				}
				tr.TimestampMicros = binary.BigEndian.Uint64(v)
			}
		}
		out = append(out, tr)
	}
	return out, nil
}

// appendHex writes src to sb as lowercase hex, through a stack buffer.
func appendHex(sb *strings.Builder, src []byte) {
	var buf [64]byte
	for len(src) > 0 {
		k := min(len(src), len(buf)/2)
		sb.Write(buf[:hex.Encode(buf[:], src[:k])])
		src = src[k:]
	}
}

// EventNotification builds the READER_EVENT_NOTIFICATION a reader
// sends on connect (ConnectionAttemptEvent, status success).
func EventNotification(id uint32) Message {
	payload := appendParam(nil, ParamConnectionAttempt, []byte{0, 0}) // status 0 = success
	return Message{Type: MsgReaderEventNotification, ID: id, Payload: payload}
}

// StatusOK builds an LLRPStatus parameter payload indicating success,
// used by responses.
func StatusOK() []byte {
	return appendParam(nil, ParamLLRPStatus, []byte{0, 0})
}
