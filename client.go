package polardraw

import (
	"context"
	"errors"
	"fmt"
	"time"

	"polardraw/internal/core"
	"polardraw/internal/session"
	"polardraw/internal/shardrpc"
	"polardraw/internal/telemetry"
)

// Client is the public handle on a PolarDraw serving tier: a mixed
// multi-pen ingest surface, per-session control, and one unified event
// stream, over either in-process shards (WithShards) or remote shard
// servers (WithShardServers). Both are one rendezvous router over the
// shard backends; only the transport differs. All methods are safe for
// concurrent use and honour their context's deadline and cancellation.
type Client struct {
	router *session.Router
	tel    *telemetry.Registry

	// tracker is the HMM grid every in-process shard shares; nil in
	// remote mode, where the servers own their grids.
	tracker *core.Tracker
}

// Open builds a client. With no options it runs four in-process
// shards on the default rig geometry — tests and examples; real
// deployments pass WithAntennas plus either WithShards or
// WithShardServers. Remote mode dials every server up front (honouring
// ctx) so a misconfigured cluster fails at Open, not at first
// dispatch; a version-skewed server fails with ErrVersionMismatch.
func Open(ctx context.Context, opts ...Option) (*Client, error) {
	cfg := defaultClientConfig()
	for _, o := range opts {
		o.applyClient(&cfg)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c := &Client{tel: telemetry.NewRegistry()}
	// dial builds the backend for one shard, at Open and for every
	// membership join: a fresh in-process shard on the shared tracker,
	// or a shardrpc connection to the member's address.
	var dial func(name, addr string) (session.ShardBackend, error)
	var nbs []session.NamedBackend
	if len(cfg.servers) == 0 {
		sess := cfg.sessionConfig()
		sess.Telemetry = c.tel
		c.tracker = core.New(sess.Tracker)
		dial = func(string, string) (session.ShardBackend, error) {
			return session.NewLocalBackend(sess, c.tracker), nil
		}
		if cfg.shards <= 0 {
			cfg.shards = defaultShards
		}
		for i := 0; i < cfg.shards; i++ {
			nbs = append(nbs, session.NamedBackend{
				Name:    fmt.Sprintf("shard-%d", i),
				Backend: session.NewLocalBackend(sess, c.tracker),
			})
		}
	} else {
		dial = func(_, addr string) (session.ShardBackend, error) {
			rc, err := shardrpc.Dial(shardrpc.ClientConfig{
				Addr:        addr,
				EventBuffer: cfg.eventBuffer,
				Defaults:    cfg.decode,
				Telemetry:   c.tel,
			})
			if err != nil {
				return nil, err
			}
			return rc, nil
		}
		for _, addr := range cfg.servers {
			var b session.ShardBackend
			err := ctx.Err()
			if err == nil {
				b, err = dial(addr, addr)
			}
			if err != nil {
				// Abandon the connections already dialed.
				for _, nb := range nbs {
					_, _ = nb.Backend.Close(context.Background())
				}
				return nil, fmt.Errorf("polardraw: shard %s: %w", addr, err)
			}
			nbs = append(nbs, session.NamedBackend{Name: addr, Backend: b})
		}
	}
	c.router = session.NewRouter(nbs)
	c.router.SetEventBuffer(cfg.eventBuffer)
	c.router.SetDialer(dial)
	if cfg.journal != nil {
		c.router.SetJournal(cfg.journal)
	}
	c.router.SetAdmission(cfg.admission)
	c.router.SetTelemetry(c.tel)
	if c.tracker != nil {
		// Remote shard servers report their own live-session gauge.
		c.tel.GaugeFunc("polardraw_sessions_live", func() float64 {
			n, _ := c.router.Len(context.Background())
			return float64(n)
		})
	}
	if cfg.heartbeat > 0 {
		c.router.StartHeartbeat(cfg.heartbeat)
	}
	return c, nil
}

// remotes maps the router's live shardrpc connections by backend name
// (none in local mode), including members joined through
// ApplyMembership and leavers still draining.
func (c *Client) remotes() map[string]*shardrpc.Client {
	out := make(map[string]*shardrpc.Client)
	for _, nb := range c.router.NamedBackends() {
		if rc, ok := nb.Backend.(*shardrpc.Client); ok {
			out[nb.Name] = rc
		}
	}
	return out
}

// Remote reports whether the client fronts remote shard servers.
func (c *Client) Remote() bool { return c.tracker == nil }

// OpenSession eagerly creates the EPC's session with per-session
// decode options overriding the backend defaults. Unlike the implicit
// create on first Dispatch, OpenSession never evicts another session
// to make room: at the session cap it fails with ErrSessionLimit.
// Opening a live EPC is a no-op. Options travel to remote shards
// losslessly, so a remotely opened session decodes bit-identically to
// a local one with the same options.
func (c *Client) OpenSession(ctx context.Context, epc string, opts ...SessionOption) error {
	var o session.OpenOptions
	for _, op := range opts {
		op.applySession(&o)
	}
	return c.router.Open(ctx, epc, o)
}

// Dispatch routes one sample to its EPC's session, creating the
// session on first sight. With blocking backpressure (the default) it
// returns ctx.Err() if the context ends while queues are full.
func (c *Client) Dispatch(ctx context.Context, smp Sample) error {
	return c.router.Dispatch(ctx, smp)
}

// DispatchBatch routes a batch (e.g. one RO_ACCESS_REPORT) in order.
func (c *Client) DispatchBatch(ctx context.Context, batch []Sample) error {
	return c.router.DispatchBatch(ctx, batch)
}

// Finalize evicts one session and returns its decoded trajectory
// (ErrUnknownEPC if none; ErrTooFewSamples if the stream was too
// short). On every transport the result covers each sample of the EPC
// whose dispatch returned before the call.
func (c *Client) Finalize(ctx context.Context, epc string) (*Result, error) {
	return c.router.Finalize(ctx, epc)
}

// Stats snapshots every live session across all shards, sorted by EPC.
func (c *Client) Stats(ctx context.Context) ([]Stats, error) {
	return c.router.Stats(ctx)
}

// EvictIdle finalizes every session idle for at least maxIdle and
// returns how many were evicted.
func (c *Client) EvictIdle(ctx context.Context, maxIdle time.Duration) (int, error) {
	return c.router.EvictIdle(ctx, maxIdle)
}

// Subscribe attaches a consumer to the unified event stream: window
// closes, live points, smoother commits, evictions, and (in remote
// mode) backend health transitions, delivered identically whichever
// transport backs the tier. The channel is buffered (WithEventBuffer);
// a consumer that falls behind loses events rather than stalling
// decode. Cancel (or ctx expiry) detaches and closes the channel.
func (c *Client) Subscribe(ctx context.Context) (<-chan Event, CancelFunc) {
	return c.router.Subscribe(ctx)
}

// SubscribeFiltered is Subscribe narrowed by opts: only events whose
// kind is in opts.Kinds (all kinds when empty) for EPCs in opts.EPCs
// (all pens when empty; events with no EPC, like backend health and
// membership, always pass the EPC filter) are delivered. The filter
// is enforced before events occupy the subscriber's buffer, so a
// consumer watching one pen's commits is not billed the whole tier's
// fan-out.
func (c *Client) SubscribeFiltered(ctx context.Context, opts SubscribeOptions) (<-chan Event, CancelFunc) {
	return c.router.SubscribeFiltered(ctx, opts)
}

// Telemetry exposes the client's metric registry: decode, session,
// router, journal, and (remote mode) wire metrics recorded in this
// process. Serve it with ServeMetrics or snapshot it directly; for
// cluster-wide numbers use ClusterStats.
func (c *Client) Telemetry() *TelemetryRegistry { return c.tel }

// ServeMetrics starts a background HTTP listener on addr serving this
// process's registry as Prometheus text exposition at /metrics. It
// returns the bound address (useful with a ":0" port) and a closer.
func (c *Client) ServeMetrics(addr string) (*MetricsServer, error) {
	return telemetry.ListenAndServe(addr, c.tel.Snapshot)
}

// ClusterStats aggregates telemetry across the whole tier: the
// client's own registry (router/journal/wire metrics, plus all decode
// metrics in local mode) merged with a snapshot pulled from every
// remote shard server over the telemetry RPC. Counters and histogram
// buckets add; gauges sum. Failures are returned alongside the
// snapshot built from the shards that did answer.
func (c *Client) ClusterStats(ctx context.Context) (TelemetrySnapshot, error) {
	agg := c.tel.Snapshot()
	var errs []error
	for name, rc := range c.remotes() {
		s, err := rc.Telemetry(ctx)
		if err != nil {
			errs = append(errs, fmt.Errorf("polardraw: telemetry from %s: %w", name, err))
			continue
		}
		agg.Merge(s)
	}
	return agg, errors.Join(errs...)
}

// Close stops ingress, drains every shard, finalizes all sessions, and
// returns the decoded results keyed by EPC (sessions too short to
// decode are omitted; their Evict events still fire). Close is
// terminal: afterwards every call fails with ErrClosed, Subscribe
// returns an already-closed channel, and Close itself returns
// (nil, nil).
func (c *Client) Close(ctx context.Context) (map[string]*Result, error) {
	return c.router.Close(ctx)
}

// Len returns the number of live sessions across all shards (remote
// mode polls every server; ctx bounds the sweep).
func (c *Client) Len(ctx context.Context) (int, error) { return c.router.Len(ctx) }

// Backends returns the shard backend names in configuration order
// (shard-N locally, server addresses remotely).
func (c *Client) Backends() []string { return c.router.Backends() }

// BackendFor reports which backend (by Backends name) the EPC
// currently routes to, including any failover or Handoff override.
func (c *Client) BackendFor(epc string) string { return c.router.BackendFor(epc) }

// Health snapshots per-backend routing health in configuration order.
func (c *Client) Health() []BackendHealth { return c.router.Health() }

// HealthCounts summarizes Health into healthy/unhealthy backend
// counts.
func (c *Client) HealthCounts() (healthy, unhealthy int) {
	return c.router.HealthCounts()
}

// Handoff gracefully moves one EPC's live session to the named backend
// (see Backends) and pins the route there. It is the same move drains
// and failover make, export first: export on the current owner,
// checkpoint into the journal (WithJournal), restore on the target, and
// restore back on the owner if the target refuses. With a journal, an
// owner that cannot export is bypassed: the target restores the
// journal's checkpoint (or re-opens with the recorded options) and
// replays the journal tail. Use it to move load off a shard before
// maintenance instead of killing it and paying a crash recovery.
func (c *Client) Handoff(ctx context.Context, epc, backend string) error {
	return c.router.Handoff(ctx, epc, backend)
}

// SamplesLost counts samples that are gone for good (remote mode;
// always zero locally): samples the servers rejected or that aged out
// of the resend buffer during a long outage. Samples merely in flight
// across a transport failure are resent after the automatic reconnect
// and do not count.
func (c *Client) SamplesLost() uint64 {
	var n uint64
	for _, rc := range c.remotes() {
		n += rc.Lost()
	}
	return n
}

// EventsDropped counts events shed at full subscriber channels: a
// consumer that falls behind loses events rather than stalling decode
// (see WithEventBuffer). Shed events are gone; the counter is how an
// operator notices an under-provisioned consumer.
func (c *Client) EventsDropped() uint64 { return c.router.EventsDropped() }

// SamplesShed counts dispatches refused with ErrOverloaded by the
// admission controller (WithAdmission). Shed samples were never
// journaled or delivered — the caller decides whether to retry, slow
// down, or drop.
func (c *Client) SamplesShed() uint64 { return c.router.Shed() }

// Membership snapshots the current routing table: the latest applied
// epoch (0 until the first ApplyMembership) and every backend with its
// state, in routing order.
func (c *Client) Membership() Membership { return c.router.Membership() }

// Epoch returns the latest applied membership epoch, 0 until the first
// ApplyMembership.
func (c *Client) Epoch() uint64 { return c.router.Epoch() }

// ApplyMembership atomically moves the client's routing table to a new
// epoch-numbered membership, without restarting anything:
//
//   - New members join: remote mode dials them (Member.Addr, or the
//     name when unset), local mode spins up fresh in-process shards.
//     Active joiners take their rendezvous share of NEW pens
//     immediately; live sessions stay where they are so a join never
//     forks a mid-stroke decode.
//   - Members marked StateDraining stop taking new pens and have every
//     live session migrated to a healthy peer (requires WithJournal
//     when a member can't export directly).
//   - Current backends missing from the table leave: drained the same
//     way, then disconnected once they own nothing.
//
// An epoch not strictly greater than the current one fails with
// ErrStaleEpoch and changes nothing, so replayed or racing updates are
// harmless. In remote mode the applied table is also pushed to every
// member (best effort), so shard servers rebroadcast it to their
// other subscribed clients; members already at the epoch are skipped
// silently. Errors from individual joins, migrations, or
// pushes are joined and returned; the epoch still applies, so retry
// stragglers with a later epoch.
func (c *Client) ApplyMembership(ctx context.Context, m Membership) error {
	err := c.router.ApplyMembership(ctx, m)
	if errors.Is(err, ErrStaleEpoch) || errors.Is(err, ErrClosed) {
		return err
	}
	// Fan the table out to the members themselves so shard servers can
	// rebroadcast it on their event streams.
	errs := []error{err}
	for name, rc := range c.remotes() {
		perr := rc.SetMembership(ctx, m)
		if perr == nil || errors.Is(perr, ErrStaleEpoch) { // someone beat us to it
			continue
		}
		errs = append(errs, fmt.Errorf("polardraw: push membership to %s: %w", name, perr))
	}
	return errors.Join(errs...)
}

// StencilCacheStats reports the shared per-grid stencil cache's
// cumulative hit/miss counters. Local mode only: remote shards own
// their grids (ok == false).
func (c *Client) StencilCacheStats() (hits, misses uint64, ok bool) {
	if c.tracker == nil {
		return 0, 0, false
	}
	h, m := c.tracker.StencilCacheStats()
	return h, m, true
}
