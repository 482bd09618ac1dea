package shardrpc

import (
	"testing"

	"polardraw/internal/codec"
	"polardraw/internal/core"
	"polardraw/internal/reader"
	"polardraw/internal/session"
)

// TestMinStatsWirePinsEncoder ties the minimum record sizes the
// decoders bound counts by (minStatsWire, minResultWire, windowWire,
// codec.SampleSize) to their encoders: each must equal the encoder's
// smallest record exactly. Growing or shrinking a payload without
// updating its constant fails here instead of silently weakening the
// allocation guard or rejecting valid messages.
func TestMinStatsWirePinsEncoder(t *testing.T) {
	for _, tc := range []struct {
		name   string
		encode func(e *codec.Encoder)
		want   int
	}{
		{"minStatsWire", func(e *codec.Encoder) { encodeStats(e, session.Stats{}) }, minStatsWire},
		{"minResultWire", func(e *codec.Encoder) { encodeResult(e, &core.Result{}) }, minResultWire},
		{"windowWire", func(e *codec.Encoder) { encodeWindow(e, core.Window{}) }, windowWire},
		{"codec.SampleSize", func(e *codec.Encoder) { e.Sample(reader.Sample{}) }, codec.SampleSize},
	} {
		var e codec.Encoder
		tc.encode(&e)
		if e.Err() != nil || len(e.Bytes()) != tc.want {
			t.Fatalf("minimum encoded record is %d bytes (err %v), %s = %d: update both together",
				len(e.Bytes()), e.Err(), tc.name, tc.want)
		}
	}
}
