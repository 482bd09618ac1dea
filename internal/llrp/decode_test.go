package llrp

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"polardraw/internal/reader"
)

// param is one decoded TLV parameter.
type param struct {
	typ   uint16
	value []byte
}

// parseParams decodes a whole TLV sequence into a slice.
func parseParams(b []byte) ([]param, error) {
	var out []param
	for len(b) > 0 {
		typ, value, rest, err := nextParam(b)
		if err != nil {
			return nil, err
		}
		out = append(out, param{typ: typ, value: value})
		b = rest
	}
	return out, nil
}

// decodeROAccessReportRef is the slice-building form of
// DecodeROAccessReport: every TLV level parsed into a []param first.
// The in-place walk must return what it returns.
func decodeROAccessReportRef(m Message) ([]TagReport, error) {
	if m.Type != MsgROAccessReport {
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, m.Type)
	}
	params, err := parseParams(m.Payload)
	if err != nil {
		return nil, err
	}
	var out []TagReport
	for _, p := range params {
		if p.typ != ParamTagReportData {
			continue
		}
		inner, err := parseParams(p.value)
		if err != nil {
			return nil, err
		}
		var tr TagReport
		for _, q := range inner {
			switch q.typ {
			case ParamEPCData:
				tr.EPC = hex.EncodeToString(q.value)
			case ParamAntennaID:
				if len(q.value) != 2 {
					return nil, ErrTruncated
				}
				tr.AntennaID = binary.BigEndian.Uint16(q.value)
			case ParamPeakRSSI:
				if len(q.value) != 2 {
					return nil, ErrTruncated
				}
				tr.RSSICentiDBm = int16(binary.BigEndian.Uint16(q.value))
			case ParamImpinjPhaseAngle:
				if len(q.value) != 2 {
					return nil, ErrTruncated
				}
				tr.Phase12 = binary.BigEndian.Uint16(q.value)
			case ParamFirstSeenUTC:
				if len(q.value) != 8 {
					return nil, ErrTruncated
				}
				tr.TimestampMicros = binary.BigEndian.Uint64(q.value)
			}
		}
		out = append(out, tr)
	}
	return out, nil
}

// requireSameDecode fails unless DecodeROAccessReport and the reference
// agree on payload: the same reports, or errors matching the same
// sentinel.
func requireSameDecode(t testing.TB, payload []byte) {
	t.Helper()
	m := Message{Type: MsgROAccessReport, ID: 1, Payload: payload}
	got, gotErr := DecodeROAccessReport(m)
	want, wantErr := decodeROAccessReportRef(m)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && !errors.Is(gotErr, wantErr) {
		t.Fatalf("payload %x: error %v, reference %v", payload, gotErr, wantErr)
	}
	if (got == nil) != (want == nil) || !slices.Equal(got, want) {
		t.Fatalf("payload %x: reports %+v, reference %+v", payload, got, want)
	}
}

// pensReport encodes n reports cycling through pens EPCs, the
// interleaving a multi-pen reader batch has.
func pensReport(t testing.TB, n, pens int) Message {
	t.Helper()
	samples := make([]reader.Sample, n)
	for i := range samples {
		samples[i] = reader.Sample{
			T:       float64(i) * 0.01,
			Antenna: i % 2,
			RSS:     -50,
			Phase:   float64(i%60) * 0.1,
			EPC:     fmt.Sprintf("e28011010000000000%06x", i%pens),
		}
	}
	m, err := EncodeROAccessReport(3, SamplesToReports(samples))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDecodeROAccessReportMatchesReference checks the in-place TLV walk
// against the slice-building reference on valid batches, on every
// truncation of one, and on random byte corruptions, including
// parameters repeated, misplaced or of the wrong length.
func TestDecodeROAccessReportMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 3, 64} {
		requireSameDecode(t, pensReport(t, n, 4).Payload)
	}
	valid := pensReport(t, 6, 3).Payload
	for i := range valid {
		requireSameDecode(t, valid[:i])
	}
	extra := appendParam(nil, ParamEPCData, []byte{0xab})
	extra = appendParam(extra, ParamEPCData, []byte{0xcd, 0xef})
	extra = appendParam(extra, ParamAntennaID, []byte{0, 2})
	twice := appendParam(valid, ParamTagReportData, extra)
	twice = appendParam(twice, ParamLLRPStatus, []byte{0, 0})
	requireSameDecode(t, twice)
	requireSameDecode(t, appendParam(nil, ParamTagReportData, appendParam(nil, ParamPeakRSSI, []byte{1})))
	requireSameDecode(t, appendParam(nil, ParamTagReportData, nil))
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		b := slices.Clone(twice)
		for k := 1 + rng.Intn(3); k > 0; k-- {
			b[rng.Intn(len(b))] = byte(rng.Intn(256))
		}
		requireSameDecode(t, b[:rng.Intn(len(b)+1)])
	}
}

// TestBudgetDecodeROAccessReportAllocs pins the decoder's allocations:
// the result slice and one string holding every EPC, per message, so
// per report they fall with the batch size. The slice-building decoder
// made about six per report (the parameter slices, their growth, and
// each EPC string).
func TestBudgetDecodeROAccessReportAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("memory budgets are pinned without the race detector")
	}
	const reports, budget = 64, 2
	m := pensReport(t, reports, 4)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := DecodeROAccessReport(m); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v allocations per %d-report message (%.3f per report, budget %d per message)",
		allocs, reports, allocs/reports, budget)
	if allocs > budget {
		t.Fatalf("decoding a %d-report message makes %v allocations, budget %d", reports, allocs, budget)
	}
}
