// Package polardraw is the public client API of the PolarDraw serving
// stack: RFID-pen trajectory tracking (conf_conext_ShangguanJ16) as a
// multi-tenant streaming service.
//
// A [Client] fronts a shard tier — in-process shards by default
// ([WithShards]), or remote shard servers over the shardrpc wire
// ([WithShardServers]) — behind one transport-agnostic surface:
//
//	c, err := polardraw.Open(ctx,
//		polardraw.WithAntennas(ants),
//		polardraw.WithShards(4),
//	)
//	...
//	events, cancel := c.Subscribe(ctx)   // unified event stream
//	c.DispatchBatch(ctx, samples)        // mixed multi-pen ingest
//	res, err := c.Finalize(ctx, epc)     // decoded trajectory
//	results, err := c.Close(ctx)
//
// Every call takes a context.Context and honours deadlines and
// cancellation — a call blocked on a dead remote returns
// context.DeadlineExceeded promptly instead of hanging — and failures
// are drawn from a typed taxonomy ([ErrClosed], [ErrUnknownEPC],
// [ErrSessionLimit], [ErrBackendUnavailable], [ErrTooFewSamples]) that
// round-trips the shardrpc wire, so errors.Is behaves identically
// however the deployment is topologized.
//
// Decode parameters are per session, not per process: [WithBeamTopK],
// [WithCommitLag], [WithAdaptiveBeam], [WithWindow], and
// [WithSpuriousPhase] are accepted both by [Open] (the client-wide
// default) and by [Client.OpenSession] (one pen's override), and
// travel to remote shards losslessly — a session opened with options
// on a remote shard decodes bit-identically to the same options in
// process.
//
// Consumption is one unified [Event] stream ([Client.Subscribe]):
// window closes, live points, smoother commits, evictions, and backend
// health transitions, delivered identically across local, RPC, and
// routed backends.
package polardraw

import (
	"polardraw/internal/core"
	"polardraw/internal/reader"
	"polardraw/internal/rf"
	"polardraw/internal/session"
	"polardraw/internal/shardrpc"
	"polardraw/internal/telemetry"
)

// Re-exported types: the public surface of the serving stack. Aliases
// keep the internal packages freely refactorable behind this facade
// while letting ingest code keep using internal/reader's types.
type (
	// Sample is one raw RFID tag read (internal/reader's ingest type).
	Sample = reader.Sample
	// Result is a decoded pen trajectory plus diagnostics.
	Result = core.Result
	// Window is one averaged preprocessing window.
	Window = core.Window
	// Stats is a point-in-time snapshot of one session's counters.
	Stats = session.Stats
	// DecodeStats is the decoder telemetry embedded in Stats.
	DecodeStats = core.DecodeStats
	// Event is one entry of the unified serving event stream.
	Event = session.Event
	// EventKind discriminates Event payloads.
	EventKind = session.EventKind
	// CancelFunc releases a Subscribe subscription.
	CancelFunc = session.CancelFunc
	// BackendHealth is a per-backend routing health snapshot.
	BackendHealth = session.BackendHealth
	// Antenna describes one reader antenna (position, polarization).
	Antenna = rf.Antenna
	// OpenOptions is the wire-portable per-session decode
	// configuration assembled by session options.
	OpenOptions = session.OpenOptions
	// Journal is the durability WAL attached with WithJournal.
	Journal = session.Journal
	// Membership is an epoch-numbered routing table applied with
	// Client.ApplyMembership: who serves traffic, who is draining, who
	// is standing by.
	Membership = session.Membership
	// Member is one backend row of a Membership table.
	Member = session.Member
	// BackendState is a Member's routing role (StateActive,
	// StateDraining, StateSpare).
	BackendState = session.BackendState
	// AdmissionConfig bounds ingress before shedding (WithAdmission).
	AdmissionConfig = session.AdmissionConfig
	// SubscribeOptions narrows a filtered subscription
	// (Client.SubscribeFiltered) to an event-kind and/or EPC
	// allow-list; the zero value subscribes to everything.
	SubscribeOptions = session.SubscribeOptions
	// TelemetryRegistry is the process-local metric registry every
	// layer records into (see Client.Telemetry, ShardServer.Telemetry).
	TelemetryRegistry = telemetry.Registry
	// TelemetrySnapshot is a point-in-time copy of a registry —
	// counters, gauges, and mergeable histograms. Snapshots from
	// multiple shards Merge into cluster totals (Client.ClusterStats)
	// and render to Prometheus text via WritePrometheus.
	TelemetrySnapshot = telemetry.Snapshot
	// MetricsServer is the background /metrics HTTP listener started
	// by ShardServer.ServeMetrics (and the -metrics-addr flags).
	MetricsServer = telemetry.Server
)

// Membership states (see BackendState).
const (
	// StateActive members take their rendezvous share of new pens.
	StateActive = session.StateActive
	// StateDraining members accept no new pens; their live sessions
	// migrate to healthy peers.
	StateDraining = session.StateDraining
	// StateSpare members are connected and health-probed but take no
	// traffic until a later epoch activates them.
	StateSpare = session.StateSpare
)

// Journal constructors (see WithJournal). NewMemJournal keeps the WAL
// in memory — durable across shard deaths, not client crashes;
// NewFileJournal persists it to an append-only file that survives a
// client restart. retain bounds buffered samples per stroke beyond the
// latest checkpoint (0 = session.DefaultJournalRetention); older
// samples age out and are counted in the journal's Lost.
var (
	NewMemJournal  = session.NewMemJournal
	NewFileJournal = session.NewFileJournal
)

// Event kinds (see the session package's docs for each payload).
const (
	EventWindowClose   = session.EventWindowClose
	EventPoint         = session.EventPoint
	EventCommit        = session.EventCommit
	EventEvict         = session.EventEvict
	EventBackendHealth = session.EventBackendHealth
	EventCheckpoint    = session.EventCheckpoint
	EventMembership    = session.EventMembership
)

// The error taxonomy. Remote backends round-trip these sentinels over
// the shardrpc wire, so errors.Is works identically across local, RPC,
// and routed deployments.
var (
	// ErrClosed: the client (or its backend) has been closed.
	ErrClosed = session.ErrClosed
	// ErrUnknownEPC: the EPC has no live session.
	ErrUnknownEPC = session.ErrUnknownEPC
	// ErrSessionLimit: an explicit OpenSession would exceed the
	// backend's session cap.
	ErrSessionLimit = session.ErrSessionLimit
	// ErrBackendUnavailable: a backend's transport failed before the
	// operation could complete.
	ErrBackendUnavailable = session.ErrBackendUnavailable
	// ErrTooFewSamples: the session's stream was too short to decode.
	ErrTooFewSamples = core.ErrTooFewSamples
	// ErrVersionMismatch: a shardrpc connect found a server speaking
	// another protocol version.
	ErrVersionMismatch = shardrpc.ErrVersionMismatch
	// ErrOverloaded: the admission controller (WithAdmission) shed the
	// dispatch; the sample was refused before the journal saw it.
	ErrOverloaded = session.ErrOverloaded
	// ErrStaleEpoch: an ApplyMembership carried an epoch not strictly
	// greater than the current one; nothing changed.
	ErrStaleEpoch = session.ErrStaleEpoch
)

// Serving defaults, chosen by the accuracy studies in
// internal/experiment (see core.DefaultBeamTopK and
// core.DefaultCommitLag for the provenance).
const (
	// DefaultBeamTopK is Open's default decoder beam count bound.
	DefaultBeamTopK = core.DefaultBeamTopK
	// DefaultCommitLag is Open's default fixed-lag smoothing depth.
	DefaultCommitLag = core.DefaultCommitLag
)
