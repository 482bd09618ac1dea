package llrp

import (
	"bytes"
	"math"
	"testing"

	"polardraw/internal/reader"
)

// corpusReports builds a small batch of wire reports shaped like real
// readersim traffic (quantized phase grid, centi-dBm RSSI, microsecond
// timestamps) without running the full simulator.
func corpusReports() []TagReport {
	var samples []reader.Sample
	for i := 0; i < 24; i++ {
		samples = append(samples, reader.Sample{
			T:       float64(i) * 0.011,
			Antenna: i % 2,
			RSS:     -48.5 - float64(i%7)*0.5,
			Phase:   math.Mod(float64(i)*0.37, 2*math.Pi),
			EPC:     "e280110100000000000000ff",
		})
	}
	return SamplesToReports(samples)
}

// FuzzReadMessage exercises the framing decoder on arbitrary bytes and
// round-trips every message it accepts.
func FuzzReadMessage(f *testing.F) {
	reports := corpusReports()
	for batch := 1; batch <= len(reports); batch *= 4 {
		m, err := EncodeROAccessReport(7, reports[:batch])
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	var hs bytes.Buffer
	_ = WriteMessage(&hs, EventNotification(1))
	_ = WriteMessage(&hs, Message{Type: MsgStartROSpecResponse, ID: 2, Payload: StatusOK()})
	f.Add(hs.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x04, 0x3d, 0x00, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x00, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("re-encode of accepted message failed: %v", err)
		}
		m2, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if m2.Type != m.Type || m2.ID != m.ID || !bytes.Equal(m2.Payload, m.Payload) {
			t.Fatalf("round trip mismatch: %+v vs %+v", m, m2)
		}
	})
}

// FuzzDecodeROAccessReport exercises the TLV parameter walk on
// arbitrary payloads: it must agree with the slice-building reference,
// and whatever decodes must re-encode cleanly.
func FuzzDecodeROAccessReport(f *testing.F) {
	reports := corpusReports()
	m, err := EncodeROAccessReport(9, reports)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(m.Payload)
	one, _ := EncodeROAccessReport(10, reports[:1])
	f.Add(one.Payload)
	f.Add([]byte{})
	f.Add([]byte{0x00, 0xf0, 0x00, 0x04}) // empty TagReportData

	f.Fuzz(func(t *testing.T, payload []byte) {
		requireSameDecode(t, payload)
		msg := Message{Type: MsgROAccessReport, ID: 1, Payload: payload}
		decoded, err := DecodeROAccessReport(msg)
		if err != nil {
			return
		}
		if _, err := EncodeROAccessReport(2, decoded); err != nil {
			t.Fatalf("decoded reports failed to re-encode: %v", err)
		}
	})
}
