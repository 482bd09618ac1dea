package shardrpc

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"polardraw/internal/codec"
	"polardraw/internal/core"
	"polardraw/internal/geom"
	"polardraw/internal/reader"
	"polardraw/internal/session"
	"polardraw/internal/telemetry"
)

// Every decode may allocate at most allocPerByte bytes per input byte
// plus allocSlack: counts are bounded by the unread payload, and the
// densest expansion (a 21-byte histogram entry becoming a 528-byte
// HistogramSnapshot in a map) stays well under the factor. The slack
// covers fixed costs (maps, the journal's file handle) and any
// allocation a stray goroutine makes during the measurement.
const (
	allocPerByte = 64
	allocSlack   = 256 << 10
)

// wireDecoders is every wire decode entry point, keyed for messages.
var wireDecoders = map[string]func(d *codec.Decoder){
	"event":     func(d *codec.Decoder) { decodeEvent(d) },
	"samples":   func(d *codec.Decoder) { decodeSamples(d) },
	"stats":     func(d *codec.Decoder) { decodeStats(d) },
	"result":    func(d *codec.Decoder) { decodeResult(d) },
	"telemetry": func(d *codec.Decoder) { decodeTelemetry(d) },
	"members":   func(d *codec.Decoder) { decodeMembership(d) },
	"subscribe": func(d *codec.Decoder) { decodeSubscribeOptions(d) },
	"options":   func(d *codec.Decoder) { session.DecodeOpenOptions(d) },
	"hello":     func(d *codec.Decoder) { decodeHello(d) },
}

// allocated reports the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeFrames feeds each input to every wire decode entry point
// and, as a journal file, to FileJournal's record replay. It is seeded
// with the encoders' outputs. No decode may panic or allocate more
// than the payload-size bound above.
func FuzzDecodeFrames(f *testing.F) {
	for _, seed := range encodedSeeds(f) {
		f.Add(seed)
	}
	// Inputs run one at a time in each process, so they share one file.
	path := filepath.Join(f.TempDir(), "fuzz.wal")
	f.Fuzz(func(t *testing.T, data []byte) {
		bound := uint64(allocPerByte*len(data) + allocSlack)
		for name, decode := range wireDecoders {
			if n := allocated(func() { d := codec.NewDecoder(data); decode(&d) }); n > bound {
				t.Fatalf("%s decode of %d bytes allocated %d bytes", name, len(data), n)
			}
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var j *session.FileJournal
		n := allocated(func() { j, _ = session.NewFileJournal(path, 0) })
		if j != nil {
			j.Close()
		}
		if n > bound {
			t.Fatalf("journal replay of %d bytes allocated %d bytes", len(data), n)
		}
	})
}

// encodedSeeds returns one encoding of every message body the decoders
// read, and a journal file holding one record of each type.
func encodedSeeds(f *testing.F) [][]byte {
	k, adaptive, window := 64, true, 0.1
	opts := session.OpenOptions{BeamTopK: &k, BeamAdaptive: &adaptive, Window: &window}
	win := core.Window{T: 0.5, RSS: [2]float64{-60, -61}, Count: [2]int{3, 4}, Valid: true}
	res := &core.Result{Trajectory: geom.Polyline{{X: 0.1, Y: 0.2}}, Windows: []core.Window{win}}
	members := session.Membership{Epoch: 3, Members: []session.Member{{Name: "a", Addr: "h:1"}}}
	reg := telemetry.NewRegistry()
	reg.Counter("c").Add(2)
	reg.Gauge("g").Set(1.5)
	reg.Histogram("h").Observe(0.01)
	smp := reader.Sample{EPC: "pen-1", T: 0.25, Antenna: 1, RSS: -61.5, Phase: 2.75}

	encoders := []func(e *codec.Encoder){
		func(e *codec.Encoder) { encodeSamples(e, []reader.Sample{smp, smp}) },
		func(e *codec.Encoder) { encodeStats(e, session.Stats{EPC: "pen-1", Windows: 4}) },
		func(e *codec.Encoder) { encodeResult(e, res) },
		func(e *codec.Encoder) { encodeTelemetry(e, reg.Snapshot()) },
		func(e *codec.Encoder) { encodeMembership(e, members) },
		func(e *codec.Encoder) {
			encodeSubscribeOptions(e, session.SubscribeOptions{
				Kinds: []session.EventKind{session.EventCommit}, EPCs: []string{"pen-1"}})
		},
		func(e *codec.Encoder) { session.EncodeOpenOptions(e, opts) },
		func(e *codec.Encoder) { encodeHello(e, protoVersion, "client", opts) },
	}
	for _, ev := range []session.Event{
		{Kind: session.EventWindowClose, EPC: "pen-1", Window: win},
		{Kind: session.EventPoint, EPC: "pen-1", Window: win, Live: geom.Vec2{X: 1, Y: 2}},
		{Kind: session.EventCommit, EPC: "pen-1", CommitStart: 2, Segment: res.Trajectory},
		{Kind: session.EventEvict, EPC: "pen-1", Result: res},
		{Kind: session.EventEvict, EPC: "pen-1", Err: session.ErrUnknownEPC},
		{Kind: session.EventBackendHealth, Backend: "shard-a", Healthy: true},
		{Kind: session.EventCheckpoint, EPC: "pen-1", Covered: 9, State: []byte{1, 2, 3}},
		{Kind: session.EventMembership, Epoch: members.Epoch, Members: members.Members},
	} {
		encoders = append(encoders, func(e *codec.Encoder) { encodeEvent(e, ev) })
	}
	var seeds [][]byte
	for _, encode := range encoders {
		var e codec.Encoder
		if encode(&e); e.Err() != nil {
			f.Fatal(e.Err())
		}
		seeds = append(seeds, e.Bytes())
	}

	path := filepath.Join(f.TempDir(), "wal.log")
	j, err := session.NewFileJournal(path, 0)
	if err != nil {
		f.Fatal(err)
	}
	if err := j.RecordOpen("pen-1", opts); err != nil {
		f.Fatal(err)
	}
	if _, err := j.Append(smp); err != nil {
		f.Fatal(err)
	}
	if err := j.SaveCheckpoint("pen-1", 1, []byte{1, 2}); err != nil {
		f.Fatal(err)
	}
	j.Release("pen-2")
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	wal, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return append(seeds, wal)
}
