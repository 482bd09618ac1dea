package polardraw

import (
	"time"

	"polardraw/internal/core"
	"polardraw/internal/session"
)

// Option configures a Client at Open (or a ShardServer at
// NewShardServer).
type Option interface{ applyClient(*clientConfig) }

// SessionOption configures one pen session at Client.OpenSession.
// Every decode option ([WithBeamTopK], [WithCommitLag],
// [WithAdaptiveBeam], [WithWindow], [WithSpuriousPhase]) is both an
// Option and a SessionOption: passed to Open it sets the client-wide
// default, passed to OpenSession it overrides for that session alone.
type SessionOption interface{ applySession(*session.OpenOptions) }

// DecodeOption is a per-session decode parameter, usable both
// client-wide (as an Option to Open) and per pen (as a SessionOption
// to OpenSession).
type DecodeOption struct{ f func(*session.OpenOptions) }

func (o DecodeOption) applyClient(c *clientConfig)         { o.f(&c.decode) }
func (o DecodeOption) applySession(s *session.OpenOptions) { o.f(s) }

type optionFunc func(*clientConfig)

func (f optionFunc) applyClient(c *clientConfig) { f(c) }

// clientConfig is the assembled Open configuration.
type clientConfig struct {
	antennas [2]Antenna
	decode   session.OpenOptions // client-wide decode defaults

	shards  int      // local mode: in-process shard count
	servers []string // remote mode: shard server addresses

	queueSize   int
	maxSessions int
	drop        bool
	eventBuffer int
	heartbeat   time.Duration

	journal         session.Journal
	checkpointEvery int
	admission       session.AdmissionConfig
}

// defaultShards is the in-process shard count when WithShards is not
// given (or not positive).
const defaultShards = 4

func defaultClientConfig() clientConfig {
	return clientConfig{shards: defaultShards}
}

// baseTracker assembles the core pipeline configuration the client's
// (or shard server's) sessions start from: the rig geometry plus the
// client-wide decode defaults. Unset decode options take the serving
// defaults (DefaultBeamTopK, DefaultCommitLag) — per-session
// OpenOptions can still override them, including back to zero.
func (c clientConfig) baseTracker() core.Config {
	cfg := core.Config{
		Antennas:  c.antennas,
		BeamTopK:  DefaultBeamTopK,
		CommitLag: DefaultCommitLag,
	}
	return c.decode.Apply(cfg)
}

func (c clientConfig) sessionConfig() session.Config {
	return session.Config{
		Tracker:         c.baseTracker(),
		QueueSize:       c.queueSize,
		MaxSessions:     c.maxSessions,
		DropWhenFull:    c.drop,
		EventBuffer:     c.eventBuffer,
		CheckpointEvery: c.checkpointEvery,
	}
}

// WithAntennas sets the two reader antennas (positions and
// polarization axes) the HMM grid and direction estimation are built
// on. Required for any real rig; the zero value decodes nothing
// useful.
func WithAntennas(ants [2]Antenna) Option {
	return optionFunc(func(c *clientConfig) { c.antennas = ants })
}

// WithShards runs the client over n in-process shards behind the
// rendezvous router (the single-process deployment; default four).
// The shards share one HMM grid. Mutually exclusive with
// WithShardServers.
func WithShards(n int) Option {
	return optionFunc(func(c *clientConfig) { c.shards = n; c.servers = nil })
}

// WithShardServers runs the client over remote shardrpc servers (see
// ShardServer / `polardraw -serve-shard`), one connection per address,
// behind the same rendezvous router as the in-process deployment.
// Tracker geometry and defaults are the servers'; per-session
// OpenSession options still apply and travel over the wire.
func WithShardServers(addrs ...string) Option {
	return optionFunc(func(c *clientConfig) { c.servers = append([]string(nil), addrs...) })
}

// WithBeamTopK bounds the decoder's active Viterbi beam by count
// (0 = window-only pruning; default DefaultBeamTopK). Client-wide at
// Open, per-session at OpenSession.
func WithBeamTopK(k int) DecodeOption {
	return DecodeOption{func(o *session.OpenOptions) { o.BeamTopK = &k }}
}

// WithCommitLag bounds the fixed-lag smoother's undecided window span,
// making resident decoder memory O(lag) (0 = unbounded; default
// DefaultCommitLag). Client-wide at Open, per-session at OpenSession.
func WithCommitLag(lag int) DecodeOption {
	return DecodeOption{func(o *session.OpenOptions) { o.CommitLag = &lag }}
}

// WithAdaptiveBeam toggles the adaptive top-K controller (requires a
// BeamTopK > 0). Client-wide at Open, per-session at OpenSession.
func WithAdaptiveBeam(on bool) DecodeOption {
	return DecodeOption{func(o *session.OpenOptions) { o.BeamAdaptive = &on }}
}

// WithWindow sets the preprocessing averaging window in seconds
// (default 0.05; widen it when many pens share one reader's read
// rate). Client-wide at Open, per-session at OpenSession.
func WithWindow(seconds float64) DecodeOption {
	return DecodeOption{func(o *session.OpenOptions) { o.Window = &seconds }}
}

// WithSpuriousPhase sets the adjacent-window phase-jump rejection
// threshold in radians (default 0.2). Client-wide at Open, per-session
// at OpenSession.
func WithSpuriousPhase(radians float64) DecodeOption {
	return DecodeOption{func(o *session.OpenOptions) { o.SpuriousPhase = &radians }}
}

// WithSessionQueue bounds each pen session's sample queue (default
// session.DefaultQueueSize).
func WithSessionQueue(n int) Option {
	return optionFunc(func(c *clientConfig) { c.queueSize = n })
}

// WithMaxSessions caps live sessions per shard before LRU eviction
// (default session.DefaultMaxSessions).
func WithMaxSessions(n int) Option {
	return optionFunc(func(c *clientConfig) { c.maxSessions = n })
}

// WithDropWhenFull selects lossy backpressure: a full session queue
// drops and counts the sample (Stats.QueueDropped) instead of blocking
// the dispatcher.
func WithDropWhenFull(on bool) Option {
	return optionFunc(func(c *clientConfig) { c.drop = on })
}

// WithEventBuffer bounds each Subscribe consumer's channel (default
// session.DefaultEventBuffer). A consumer that falls behind loses
// events rather than stalling decode workers.
func WithEventBuffer(n int) Option {
	return optionFunc(func(c *clientConfig) { c.eventBuffer = n })
}

// WithHeartbeat probes remote shard servers every interval, feeding
// the router's per-backend health (see Client.Health). Ignored for
// in-process shards, which have no transport to probe. With a journal
// attached the heartbeat is what detects a silently dead shard —
// buffered dispatch hides transport errors from the call path — so
// durable remote deployments should always set it.
func WithHeartbeat(interval time.Duration) Option {
	return optionFunc(func(c *clientConfig) { c.heartbeat = interval })
}

// WithJournal attaches a durability journal (WAL) to the client's
// router: every dispatched sample and checkpoint is recorded before it
// reaches a shard, and when a shard dies mid-stroke its sessions are
// rebuilt on a healthy shard from the latest checkpoint plus a journal
// replay (see NewMemJournal and NewFileJournal). Without a journal,
// routing never moves and a shard death loses its in-flight strokes —
// the pre-durability behavior. Requires blocking backpressure: with
// WithDropWhenFull the drop happens before the journal sees the
// sample.
func WithJournal(j Journal) Option {
	return optionFunc(func(c *clientConfig) { c.journal = j })
}

// WithAdmission bounds what the client's dispatch path will accept
// before shedding with ErrOverloaded: a per-backend in-flight cap plus
// a router-wide token-bucket sample rate (see AdmissionConfig; zero
// fields disable the corresponding limit). Shedding happens before the
// journal sees the sample — a shed sample is refused, not lost, and
// counts in Client.SamplesShed. Use it to keep one hot reader from
// starving every other pen on the tier.
func WithAdmission(cfg AdmissionConfig) Option {
	return optionFunc(func(c *clientConfig) { c.admission = cfg })
}

// WithCheckpointEvery makes every session emit a serialized snapshot
// of its decode state after every n closed preprocessing windows,
// bounding how much journal replay a recovery needs. Applies to in-process shards
// at Open and to shard servers at NewShardServer (a remote client's
// checkpoints are cut server-side and travel back on the event
// stream); 0 disables checkpointing.
func WithCheckpointEvery(n int) Option {
	return optionFunc(func(c *clientConfig) { c.checkpointEvery = n })
}
