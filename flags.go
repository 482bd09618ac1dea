package polardraw

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"polardraw/internal/session"
)

// Flags is the shared command-line wiring for the serving tier: one
// registration of the decode/topology/backpressure flags that
// cmd/loadgen, cmd/polardraw, and any operator tool would otherwise
// each re-declare. Bind it to a FlagSet, parse, then turn it into
// functional options:
//
//	f := polardraw.BindFlags(flag.CommandLine)
//	flag.Parse()
//	opts, err := f.Options()
//	c, err := polardraw.Open(ctx, append(opts, polardraw.WithAntennas(ants))...)
//
// Rig geometry (antennas) is deliberately not a flag: it comes from
// the deployment's calibration, not the command line.
type Flags struct {
	// Shards is either an in-process shard count ("4") or a
	// comma-separated host:port list of remote shard servers.
	Shards *string
	// Window, Lag, TopK, Adaptive, Spurious are the decode defaults
	// (per-session OpenOptions may override them).
	Window   *float64
	Lag      *int
	TopK     *int
	Adaptive *bool
	// Queue, MaxSessions, Drop, EventBuffer shape backpressure and
	// fan-out.
	Queue       *int
	MaxSessions *int
	Drop        *bool
	EventBuffer *int
	// WAL selects the durability journal: "" (off), "mem", or a file
	// path. CheckpointEvery bounds journal replay at recovery.
	WAL             *string
	CheckpointEvery *int
	// AdmitRate, AdmitBurst, AdmitInFlight shape ingress admission
	// control (WithAdmission); all zero = admit everything.
	AdmitRate     *float64
	AdmitBurst    *int
	AdmitInFlight *int
	// MetricsAddr, when non-empty, is the host:port a background HTTP
	// listener serves Prometheus text exposition on at /metrics (see
	// Client.ServeMetrics / ShardServer.ServeMetrics). Not an Open
	// option — commands start the listener themselves.
	MetricsAddr *string
}

// BindFlags registers the serving flags on fs (use flag.CommandLine
// for a main package) and returns the handle to read after parsing.
func BindFlags(fs *flag.FlagSet) *Flags {
	return &Flags{
		Shards:      fs.String("shards", "4", "in-process shard count, or comma-separated host:port shard servers"),
		Window:      fs.Float64("window", 0, "preprocessing window seconds (0 = core default; widen for many pens per reader)"),
		Lag:         fs.Int("lag", DefaultCommitLag, "Viterbi CommitLag in windows (0 = unbounded decoder memory)"),
		TopK:        fs.Int("topk", DefaultBeamTopK, "BeamTopK decoder count bound (0 = window-only beam pruning)"),
		Adaptive:    fs.Bool("adaptive-beam", false, "enable the adaptive top-K controller (requires -topk > 0)"),
		Queue:       fs.Int("queue", session.DefaultQueueSize, "per-session sample queue size"),
		MaxSessions: fs.Int("max-sessions", 0, "live-session cap per shard before LRU eviction (0 = default)"),
		Drop:        fs.Bool("drop", false, "drop samples at full queues instead of blocking"),
		EventBuffer: fs.Int("eventbuffer", session.DefaultEventBuffer, "per-subscriber event channel capacity"),
		WAL:         fs.String("wal", "", "durability journal: 'mem' (in-memory WAL) or a file path ('' = off)"),
		CheckpointEvery: fs.Int("checkpoint-every", 0,
			"emit a session checkpoint every n closed windows, bounding WAL replay at recovery (0 = off)"),
		AdmitRate:  fs.Float64("admit-rate", 0, "admission control: sustained samples/second before shedding with ErrOverloaded (0 = unlimited)"),
		AdmitBurst: fs.Int("admit-burst", 0, "admission control: token bucket burst above -admit-rate (0 = one second of rate)"),
		AdmitInFlight: fs.Int("admit-inflight", 0,
			"admission control: max concurrent dispatches per backend before shedding (0 = unlimited)"),
		MetricsAddr: fs.String("metrics-addr", "",
			"serve Prometheus text exposition at http://<addr>/metrics ('' = off)"),
	}
}

// journal builds the -wal journal.
func (f *Flags) journal() (Journal, error) {
	if *f.WAL == "mem" {
		return NewMemJournal(0), nil
	}
	j, err := NewFileJournal(*f.WAL, 0)
	if err != nil {
		return nil, fmt.Errorf("polardraw: -wal %s: %w", *f.WAL, err)
	}
	return j, nil
}

// Remote reports whether the parsed -shards names remote servers
// rather than an in-process count.
func (f *Flags) Remote() bool {
	_, err := strconv.Atoi(strings.TrimSpace(*f.Shards))
	return err != nil
}

// Addrs returns the remote shard server addresses (Remote() mode).
func (f *Flags) Addrs() []string {
	parts := strings.Split(*f.Shards, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// Options assembles the parsed flags into Open options. Decode flags
// at their registered defaults are still passed explicitly — the
// command line is the deployment's source of truth — except Window 0,
// which keeps the core default. This holds in remote mode too: the
// decode flags become the client's connect-time defaults, pushed in
// the shardrpc hello so sessions opened implicitly on a shard inherit
// them. Backpressure flags other than the event buffer stay
// server-side in remote mode (set them on `polardraw -serve-shard`).
func (f *Flags) Options() ([]Option, error) {
	var opts []Option
	if *f.WAL != "" {
		if *f.Drop {
			return nil, fmt.Errorf("polardraw: -wal requires blocking backpressure (drop -drop)")
		}
		j, err := f.journal()
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithJournal(j))
	}
	if *f.CheckpointEvery > 0 {
		opts = append(opts, WithCheckpointEvery(*f.CheckpointEvery))
	}
	if *f.AdmitRate < 0 || *f.AdmitBurst < 0 || *f.AdmitInFlight < 0 {
		return nil, fmt.Errorf("polardraw: admission flags must be non-negative")
	}
	if *f.AdmitRate > 0 || *f.AdmitInFlight > 0 {
		opts = append(opts, WithAdmission(AdmissionConfig{
			Rate:        *f.AdmitRate,
			Burst:       *f.AdmitBurst,
			MaxInFlight: *f.AdmitInFlight,
		}))
	}
	if f.Remote() {
		addrs := f.Addrs()
		if len(addrs) == 0 {
			return nil, fmt.Errorf("polardraw: -shards %q names no servers", *f.Shards)
		}
		opts = append(opts,
			WithShardServers(addrs...),
			WithEventBuffer(*f.EventBuffer),
			WithCommitLag(*f.Lag),
			WithBeamTopK(*f.TopK),
			WithAdaptiveBeam(*f.Adaptive),
		)
		if *f.Window != 0 {
			opts = append(opts, WithWindow(*f.Window))
		}
		return opts, nil
	}
	n, _ := strconv.Atoi(strings.TrimSpace(*f.Shards))
	if n <= 0 {
		return nil, fmt.Errorf("polardraw: -shards %d must be positive", n)
	}
	opts = append(opts,
		WithShards(n),
		WithCommitLag(*f.Lag),
		WithBeamTopK(*f.TopK),
		WithAdaptiveBeam(*f.Adaptive),
		WithSessionQueue(*f.Queue),
		WithDropWhenFull(*f.Drop),
		WithEventBuffer(*f.EventBuffer),
	)
	if *f.Window != 0 {
		opts = append(opts, WithWindow(*f.Window))
	}
	if *f.MaxSessions != 0 {
		opts = append(opts, WithMaxSessions(*f.MaxSessions))
	}
	return opts, nil
}
