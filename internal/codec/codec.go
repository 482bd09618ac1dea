// Package codec is the one binary encoding of PolarDraw's serving
// state: checkpoint snapshots (internal/core), the file WAL
// (internal/session) and shard RPC frames (internal/shardrpc) all
// append values with an Encoder and consume them with a Decoder.
//
// Scalars are big-endian; floats travel as IEEE-754 bit patterns, so
// they round-trip bit-exactly. A string is at most MaxStr bytes: Str
// prefixes it with a u16 length (the shard wire), Str32 with a u32
// length (the WAL). Blobs carry a u32 length.
//
// Errors latch. An Encoder keeps its first error (a string over
// MaxStr); a Decoder keeps its first short read or Fail, and every
// later read returns zero values. Callers check Err once, after the
// last value.
package codec

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"polardraw/internal/reader"
)

// MaxStr bounds the length of an encoded string, in bytes.
const MaxStr = math.MaxUint16

// SampleSize is the encoded size of a Sample with an empty EPC, the
// floor a sample count is bounded by.
const SampleSize = 4 + 8 + 1 + 8 + 8

// Encoder appends values to a byte slice.
type Encoder struct {
	b   []byte
	err error
}

// NewEncoder returns an Encoder that appends to buf.
func NewEncoder(buf []byte) Encoder { return Encoder{b: buf} }

// Bytes returns the encoded bytes.
func (e *Encoder) Bytes() []byte { return e.b }

// Err returns the first encoding error, if any.
func (e *Encoder) Err() error { return e.err }

// Fail latches err unless an error is already latched.
func (e *Encoder) Fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

func (e *Encoder) U8(v uint8)    { e.b = append(e.b, v) }
func (e *Encoder) U16(v uint16)  { e.b = binary.BigEndian.AppendUint16(e.b, v) }
func (e *Encoder) U32(v uint32)  { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *Encoder) U64(v uint64)  { e.b = binary.BigEndian.AppendUint64(e.b, v) }
func (e *Encoder) I64(v int64)   { e.U64(uint64(v)) }
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Str appends s with a u16 length prefix.
func (e *Encoder) Str(s string) {
	if e.fits(s) {
		e.U16(uint16(len(s)))
		e.b = append(e.b, s...)
	}
}

// Str32 appends s with a u32 length prefix.
func (e *Encoder) Str32(s string) {
	if e.fits(s) {
		e.U32(uint32(len(s)))
		e.b = append(e.b, s...)
	}
}

// fits latches an error for a string over MaxStr bytes.
func (e *Encoder) fits(s string) bool {
	if len(s) > MaxStr {
		e.Fail(fmt.Errorf("codec: string of %d bytes exceeds %d", len(s), MaxStr))
		return false
	}
	return true
}

// Blob appends p with a u32 length prefix.
func (e *Encoder) Blob(p []byte) {
	e.U32(uint32(len(p)))
	e.b = append(e.b, p...)
}

// Sample appends the one Sample layout: EPC (Str32), T, the antenna
// byte, RSS and Phase. The antenna byte holds indices 0..254 as
// themselves and every other index as 255, which a two-antenna tracker
// skips exactly as it skips the original.
func (e *Encoder) Sample(s reader.Sample) {
	e.Str32(s.EPC)
	e.F64(s.T)
	ant := uint8(255)
	if s.Antenna >= 0 && s.Antenna < 255 {
		ant = uint8(s.Antenna)
	}
	e.U8(ant)
	e.F64(s.RSS)
	e.F64(s.Phase)
}

// Decoder consumes values from a byte slice.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder returns a Decoder reading b.
func NewDecoder(b []byte) Decoder { return Decoder{b: b} }

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining reports the unread bytes; a well-formed message ends with
// zero.
func (d *Decoder) Remaining() int { return len(d.b) }

// Fail latches err unless an error is already latched.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// take consumes n bytes, or latches io.ErrUnexpectedEOF.
func (d *Decoder) take(n int) []byte {
	if d.err != nil || n < 0 || n > len(d.b) {
		d.Fail(io.ErrUnexpectedEOF)
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *Decoder) U8() uint8 {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *Decoder) U16() uint16 {
	if b := d.take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

func (d *Decoder) U32() uint32 {
	if b := d.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (d *Decoder) U64() uint64 {
	if b := d.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

func (d *Decoder) I64() int64   { return int64(d.U64()) }
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }
func (d *Decoder) Bool() bool   { return d.U8() != 0 }

// Str reads a u16-length-prefixed string.
func (d *Decoder) Str() string { return string(d.take(int(d.U16()))) }

// Str32 reads a u32-length-prefixed string.
func (d *Decoder) Str32() string { return string(d.take(int(d.U32()))) }

// Blob reads a u32-length-prefixed blob, copied out of the input.
func (d *Decoder) Blob() []byte {
	if b := d.take(int(d.U32())); b != nil {
		return append([]byte(nil), b...)
	}
	return nil
}

// Int32s appends n big-endian int32s to dst, consuming them in one
// bulk take.
func (d *Decoder) Int32s(dst []int32, n int) []int32 {
	raw := d.take(4 * n)
	for i := 0; i < len(raw); i += 4 {
		dst = append(dst, int32(binary.BigEndian.Uint32(raw[i:])))
	}
	return dst
}

// Count bounds n, an element count just read, by the unread input: n
// elements of at least minSize (> 0) bytes each must fit in it, or
// Count latches io.ErrUnexpectedEOF and returns 0. A hostile count
// thus cannot force an allocation larger than the input.
func (d *Decoder) Count(n, minSize int) int {
	if d.err != nil || n < 0 || n > len(d.b)/minSize {
		d.Fail(io.ErrUnexpectedEOF)
		return 0
	}
	return n
}

// Sample reads the layout Encoder.Sample writes.
func (d *Decoder) Sample() reader.Sample {
	return reader.Sample{
		EPC:     d.Str32(),
		T:       d.F64(),
		Antenna: int(d.U8()),
		RSS:     d.F64(),
		Phase:   d.F64(),
	}
}
