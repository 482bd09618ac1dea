package codec

import (
	"errors"
	"io"
	"strings"
	"testing"
)

// TestErrorsLatch pins the latching contract callers rely on to check
// errors once: an over-long string fails the Encoder and is not
// written, and after a short read or a refused count every Decoder
// read returns zero values and the first error stays.
func TestErrorsLatch(t *testing.T) {
	var e Encoder
	e.Str(strings.Repeat("x", MaxStr))
	if e.Err() != nil || len(e.Bytes()) != 2+MaxStr {
		t.Fatalf("a MaxStr string: err %v, %d bytes", e.Err(), len(e.Bytes()))
	}
	e.Str32(strings.Repeat("x", MaxStr+1))
	if e.Err() == nil || len(e.Bytes()) != 2+MaxStr {
		t.Fatalf("an over-long string: err %v, %d bytes", e.Err(), len(e.Bytes()))
	}

	d := NewDecoder([]byte{0, 0, 0, 9, 1, 2})
	if got := d.Str32(); got != "" || !errors.Is(d.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("short string: %q, err %v", got, d.Err())
	}
	d.Fail(errors.New("later"))
	if d.U8() != 0 || !errors.Is(d.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("read after a short read: err %v", d.Err())
	}

	// Two 4-byte elements fit in 8 bytes; three do not.
	d = NewDecoder(make([]byte, 8))
	if n := d.Count(2, 4); n != 2 || d.Err() != nil {
		t.Fatalf("Count(2, 4) over 8 bytes = %d, err %v", n, d.Err())
	}
	if n := d.Count(3, 4); n != 0 || d.Err() == nil {
		t.Fatalf("Count(3, 4) over 8 bytes = %d, err %v", n, d.Err())
	}
}
