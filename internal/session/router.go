package session

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"polardraw/internal/core"
	"polardraw/internal/reader"
	"polardraw/internal/telemetry"
)

// unhealthyAfter is the consecutive-failure count past which a
// backend's Health snapshot reports Healthy == false; healthyAfter is
// the consecutive-success count that brings a down backend back. The
// two-sided hysteresis keeps a flapping backend (alternating one
// failure, one success) from oscillating across the boundary — and,
// with a journal attached, from triggering a failover storm: a
// backend transitions at most once per sustained streak.
const (
	unhealthyAfter = 3
	healthyAfter   = 3
)

// failoverTimeout bounds the restore-and-replay work for one EPC when
// a backend death triggers an automatic migration.
const failoverTimeout = 30 * time.Second

// halfOpenEvery spaces the trial dispatches the router lets through
// while every backend is unhealthy. The open circuit fails fast with
// ErrBackendUnavailable, but the call-failure streak can only recover
// through successful calls — so one trial per backend per interval
// probes for recovery without hammering a dead cluster. A var so the
// regression tests can compress time.
var halfOpenEvery = 500 * time.Millisecond

// defaultProbeTimeout bounds one heartbeat probe (see SetProbeTimeout):
// a wedged backend's probe is recorded as failed at the deadline even
// if its transport never returns, so health transitions for the rest
// of the cluster are never held hostage by one stuck shard.
const defaultProbeTimeout = 5 * time.Second

// maxProbeFanout bounds how many heartbeat probes run concurrently in
// one round, so a very wide cluster doesn't spawn a goroutine per
// backend every interval.
const maxProbeFanout = 16

// NamedBackend pairs a backend with the stable name the router hashes
// it under. Names must be unique within one router; for remote
// backends the listen address is the natural choice. Renaming a
// backend remaps every EPC it owned.
type NamedBackend struct {
	Name    string
	Backend ShardBackend
}

// BackendHealth is a point-in-time snapshot of one routed backend's
// dispatch counters.
type BackendHealth struct {
	Name string
	// Dispatched counts samples routed to the backend; Dropped counts
	// those the backend refused (its Dispatch/DispatchBatch returned an
	// error — for remote backends, typically a transport failure).
	Dispatched, Dropped uint64
	// Errors counts failed calls of any kind (dispatch and control).
	Errors uint64
	// Pings and PingFails count heartbeat probes (StartHeartbeat) sent
	// to the backend and the ones that failed. Zero for backends that
	// do not support probing.
	Pings, PingFails uint64
	// Shed counts samples refused by admission control (see
	// AdmissionConfig): never journaled, never dispatched, reported to
	// the caller as ErrOverloaded.
	Shed uint64
	// Healthy is false after unhealthyAfter consecutive failed calls
	// OR unhealthyAfter consecutive failed heartbeat probes, and true
	// again only after healthyAfter consecutive successes on the streak
	// that failed. The two streaks are independent: answering pings
	// does not excuse failing dispatches.
	Healthy bool
	// State is the backend's membership role (active by default; see
	// Membership).
	State BackendState
	// LastErr is the most recent failure's message, "" if none.
	LastErr string
}

// routerBackend wraps one backend with its routing metrics.
type routerBackend struct {
	name string
	addr string // dial address when the backend joined via membership
	b    ShardBackend
	hub  *EventHub // the router's hub, for health-transition events

	// state is the membership role (BackendState); StateActive (0) by
	// construction. Atomic so the rendezvous hot path reads it without
	// taking stMu.
	state atomic.Int32

	dispatched atomic.Uint64
	dropped    atomic.Uint64
	shed       atomic.Uint64 // samples refused by admission control
	errs       atomic.Uint64
	pings      atomic.Uint64
	pingFails  atomic.Uint64
	lastErr    atomic.Value // string

	// inflight counts concurrent dispatch calls for the admission
	// budget; lastTrial (UnixNano) spaces half-open trial dispatches
	// while every backend is down; probing guards against overlapping
	// heartbeat probes when one wedges past its deadline; migrating is
	// set while a failover for this backend is in flight.
	inflight  atomic.Int64
	lastTrial atomic.Int64
	probing   atomic.Bool
	migrating atomic.Bool

	// stMu guards the hysteresis state below. Calls and heartbeat
	// probes feed deliberately separate streaks: a backend that still
	// answers Ping but rejects every dispatch must stay unhealthy, so a
	// probe success may not erase a call-failure streak (and vice
	// versa).
	stMu       sync.Mutex
	call, ping streak

	// onDown fires (outside stMu) on a healthy->unhealthy transition;
	// the router uses it to trigger journal-backed failover.
	onDown func()

	// lat is this backend's dispatch-latency histogram (nil when
	// telemetry is off; see Router.SetTelemetry).
	lat *telemetry.Histogram

	// Per-backend upstream event forwarder handles, guarded by the
	// router's fwdMu; nil when forwarding is not armed for this backend.
	fwdCancel CancelFunc
	fwdDone   chan struct{}
}

// roleState returns the backend's membership role.
func (rb *routerBackend) roleState() BackendState {
	return BackendState(rb.state.Load())
}

// healthy reports whether neither failure streak currently holds the
// backend down.
func (rb *routerBackend) healthy() bool {
	rb.stMu.Lock()
	defer rb.stMu.Unlock()
	return !rb.call.down && !rb.ping.down
}

// streak is one side of a backend's health hysteresis: down after
// unhealthyAfter consecutive failures, up again after healthyAfter
// consecutive successes.
type streak struct {
	fails, succs int
	down         bool
}

func (s *streak) record(ok bool) {
	switch {
	case !ok:
		s.succs = 0
		if s.fails++; s.fails >= unhealthyAfter {
			s.down = true
		}
	case s.down:
		s.fails = 0
		if s.succs++; s.succs >= healthyAfter {
			s.down, s.succs = false, 0
		}
	default:
		s.fails = 0
	}
}

// pinger is implemented by backends that support a cheap liveness
// probe (shardrpc.Client round-trips an empty request). In-process
// backends have no transport to probe and are skipped by the
// heartbeat: they are healthy by construction.
type pinger interface {
	Ping(ctx context.Context) error
}

// abandoner is implemented by transports that buffer unacknowledged
// samples for resend after reconnect (shardrpc.Client). Failover clears that buffer so the migrated EPCs are not
// replayed into the dead shard when its transport comes back — every
// buffered sample is already in the journal.
type abandoner interface {
	AbandonPending()
}

// detacher is implemented by transports that can drop their connection
// without closing the remote backend (shardrpc.Client.Detach): a
// membership leave must not Close a shard server other clients still
// use. Backends without it are Closed instead when they leave.
type detacher interface {
	Detach() error
}

// announce publishes an EventBackendHealth transition and fires the
// down hook when an update moved the backend across the healthy
// boundary. Callers compute before/after under stMu and call announce
// after releasing it.
func (rb *routerBackend) announce(before, after bool) {
	if after == before {
		return
	}
	if rb.hub.HasSubscribers() {
		rb.hub.Publish(Event{Kind: EventBackendHealth, Backend: rb.name, Healthy: after})
	}
	if !after && rb.onDown != nil {
		rb.onDown()
	}
}

// observe records one outcome on streak st (rb.call or rb.ping) and
// announces a resulting health transition.
func (rb *routerBackend) observe(st *streak, ok bool) {
	rb.stMu.Lock()
	before := !rb.call.down && !rb.ping.down
	st.record(ok)
	after := !rb.call.down && !rb.ping.down
	rb.stMu.Unlock()
	rb.announce(before, after)
}

// fail records a failed call against the backend.
func (rb *routerBackend) fail(err error) {
	rb.errs.Add(1)
	rb.lastErr.Store(err.Error())
	rb.observe(&rb.call, false)
}

// ok records a successful call.
func (rb *routerBackend) ok() { rb.observe(&rb.call, true) }

// settle records a call's outcome on the backend's health and returns
// err wrapped with the backend's name (nil stays nil). A per-session
// outcome (no such EPC, too few samples, the session cap) is an answer,
// so it counts as a success; an ended ctx says nothing about the
// backend, so it counts as neither.
func (rb *routerBackend) settle(ctx context.Context, err error) error {
	switch {
	case err == nil:
		rb.ok()
		return nil
	case errors.Is(err, ErrUnknownEPC), errors.Is(err, core.ErrTooFewSamples), errors.Is(err, ErrSessionLimit):
		rb.ok()
	case ctx.Err() == nil:
		rb.fail(err)
	}
	return fmt.Errorf("router: backend %s: %w", rb.name, err)
}

// pingFail records a failed heartbeat probe.
func (rb *routerBackend) pingFail(err error) {
	rb.pingFails.Add(1)
	rb.errs.Add(1)
	rb.lastErr.Store(err.Error())
	rb.observe(&rb.ping, false)
}

// pingOK records a successful heartbeat probe.
func (rb *routerBackend) pingOK() { rb.observe(&rb.ping, true) }

// Router fans a mixed multi-pen stream out over a fixed set of shard
// backends using rendezvous (highest-random-weight) hashing: each EPC
// goes to the backend whose (backend name, EPC) hash scores highest.
// Unlike the modulo hash it replaces, the mapping is stable under
// membership change — adding a backend moves an EPC only if the new
// backend wins that EPC's rendezvous, and removing one remaps only the
// EPCs it owned. Per-EPC order is preserved because an EPC always
// routes to exactly one backend, and backends preserve it internally.
//
// Router itself implements ShardBackend, so a single-process
// deployment (router over LocalBackends sharing one core.Tracker) and
// a multi-host one (router over shardrpc.Clients) are the same code
// path, and routers compose. Its event stream merges every backend's
// stream and adds EventBackendHealth transitions. Once Close starts,
// calls fail with ErrClosed before reaching any backend.
//
// Without a journal, health is advisory: routing never moves an EPC
// off an unhealthy backend (mapping stability first). SetJournal turns
// the router into the durable tier's control point: every dispatched
// sample is recorded before routing, shard-emitted checkpoints are
// absorbed into the journal, and when a backend goes down its EPCs are
// migrated to healthy backends — restored from the latest checkpoint
// and caught up by replaying the journal — then pinned there by a
// per-EPC routing override until the stroke finalizes.
type Router struct {
	hub EventHub
	// EventBuffer for subscriptions; settable before first Subscribe.
	eventBuffer int

	// journal, when non-nil, is the WAL behind dispatches. Set it with
	// SetJournal before any traffic; it is read without synchronization
	// afterwards.
	journal Journal

	// admission, when non-nil, bounds what the dispatch path accepts
	// (SetAdmission before traffic; read without synchronization
	// afterwards, one pointer check on the hot path when off).
	admission *admission

	// tel caches the router's metric handles (SetTelemetry before
	// traffic; nil = telemetry off, one pointer check on the hot path).
	tel *routerTelemetry

	// dialer constructs a backend for a membership join (SetDialer
	// before any ApplyMembership that names an unknown member).
	dialer func(name, addr string) (ShardBackend, error)

	// handoffMu orders routing mutations (failover, handoff, override
	// maintenance, membership swaps) against dispatch traffic: dispatch
	// paths hold the read side across journal-append + backend call, so
	// a migration holding the write side observes a quiescent journal
	// and no sample can slip between its replay and its override. The
	// backend set, epoch and closed flag below are guarded by it too, so
	// Close is ordered after every call holding the read side.
	handoffMu sync.RWMutex
	backends  []*routerBackend
	epoch     uint64 // latest applied membership epoch (0 = static config)
	closed    bool
	overrides map[string]*routerBackend
	// finishedOn maps an EPC whose stroke Finalize ended on an
	// override (not its rendezvous winner) to that backend until the
	// stroke's EventEvict arrives or the EPC is placed again: the
	// stroke's trailing events are still forwarded from there although
	// the override is gone.
	finishedOn map[string]*routerBackend

	// mshipMu serializes ApplyMembership end to end (dial, swap, drain)
	// so two concurrent epochs can't interleave their drains.
	mshipMu sync.Mutex

	// Upstream event forwarding (started on first Subscribe or on
	// SetJournal, whichever comes first; per-backend handles live on
	// routerBackend so membership joins and leaves can arm and stop
	// forwarders individually).
	fwdMu    sync.Mutex
	fwdArmed bool

	// Heartbeat state (StartHeartbeat/StopHeartbeat).
	hbMu         sync.Mutex
	hbStop       chan struct{}
	hbDone       chan struct{}
	probeTimeout time.Duration // per-probe bound; set before StartHeartbeat
}

// NewRouter builds a router over the given backends. It panics on an
// empty set or a duplicate name — both are configuration bugs.
func NewRouter(backends []NamedBackend) *Router {
	if len(backends) == 0 {
		panic("session: router needs at least one backend")
	}
	seen := make(map[string]bool, len(backends))
	r := &Router{overrides: make(map[string]*routerBackend), finishedOn: make(map[string]*routerBackend)}
	for _, nb := range backends {
		if seen[nb.Name] {
			panic(fmt.Sprintf("session: duplicate router backend %q", nb.Name))
		}
		seen[nb.Name] = true
		rb := &routerBackend{name: nb.Name, b: nb.Backend, hub: &r.hub}
		rb.onDown = func() { r.backendDown(rb) }
		r.backends = append(r.backends, rb)
	}
	return r
}

// SetJournal attaches the write-ahead log that makes the router a
// durable tier (see the Router docs for the full contract). Call it
// once, before any traffic; the router does not close the journal.
// Attaching a journal also arms upstream event forwarding so shard
// checkpoints reach the journal even with no external subscriber.
func (r *Router) SetJournal(j Journal) {
	r.journal = j
	r.armForwarding()
}

// Journal returns the attached journal, nil if none.
func (r *Router) Journal() Journal { return r.journal }

// routerTelemetry caches the routing tier's metric handles. The
// registry itself is kept so backends that join later (membership
// epochs) get their per-backend histogram on arrival.
type routerTelemetry struct {
	reg           *telemetry.Registry
	journalAppend *telemetry.Histogram
	sheds         *telemetry.Counter
	failovers     *telemetry.Counter
	migrations    *telemetry.Counter
}

// backendHist returns (creating on first use) the dispatch-latency
// histogram for the named backend.
func (t *routerTelemetry) backendHist(name string) *telemetry.Histogram {
	if t == nil {
		return nil
	}
	return t.reg.Histogram(`polardraw_router_dispatch_seconds{backend="` + name + `"}`)
}

// SetTelemetry attaches the metrics registry the routing tier reports
// into: per-backend dispatch latency, admission sheds, failovers,
// migrations, and journal append latency. Call once, before any
// traffic (like SetJournal/SetAdmission); the journal-loss gauge is
// evaluated lazily at snapshot time, so SetJournal may come before or
// after.
func (r *Router) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		r.tel = nil
		return
	}
	t := &routerTelemetry{
		reg:           reg,
		journalAppend: reg.Histogram("polardraw_journal_append_seconds"),
		sheds:         reg.Counter("polardraw_router_sheds_total"),
		failovers:     reg.Counter("polardraw_router_failovers_total"),
		migrations:    reg.Counter("polardraw_router_migrations_total"),
	}
	reg.GaugeFunc("polardraw_journal_lost", func() float64 {
		if j := r.journal; j != nil {
			return float64(j.Lost())
		}
		return 0
	})
	r.handoffMu.Lock()
	for _, rb := range r.backends {
		rb.lat = t.backendHist(rb.name)
	}
	r.handoffMu.Unlock()
	r.tel = t
}

// SetAdmission bounds what Dispatch/DispatchBatch accept before
// shedding with ErrOverloaded (see AdmissionConfig). Call once, before
// any traffic; the zero config admits everything (equivalent to not
// calling it).
func (r *Router) SetAdmission(cfg AdmissionConfig) {
	if cfg.MaxInFlight <= 0 && cfg.Rate <= 0 {
		r.admission = nil
		return
	}
	r.admission = newAdmission(cfg)
}

// SetDialer supplies the constructor ApplyMembership uses to build a
// backend for a member the router doesn't know yet (a join). Call
// before the first ApplyMembership; without one, joins fail. name is
// the member's rendezvous name, addr its dial address (the name again
// when the membership left Addr empty).
func (r *Router) SetDialer(dial func(name, addr string) (ShardBackend, error)) {
	r.dialer = dial
}

// SetProbeTimeout bounds each heartbeat probe (default 5s). Call
// before StartHeartbeat. A probe that outlives the bound is recorded
// as failed immediately — the wedged transport call is left to finish
// in the background — so one stuck backend cannot delay health
// transitions for the rest.
func (r *Router) SetProbeTimeout(d time.Duration) { r.probeTimeout = d }

// snapshotBackends copies the current backend set under the read lock.
// Iterating callers work on the snapshot so a concurrent membership
// swap can't race them.
func (r *Router) snapshotBackends() []*routerBackend {
	r.handoffMu.RLock()
	defer r.handoffMu.RUnlock()
	return append([]*routerBackend(nil), r.backends...)
}

// NamedBackends returns the current backend set in routing order,
// including leavers still draining: the live transports behind the
// router, for callers that reach past the ShardBackend contract.
func (r *Router) NamedBackends() []NamedBackend {
	backends := r.snapshotBackends()
	out := make([]NamedBackend, len(backends))
	for i, rb := range backends {
		out[i] = NamedBackend{Name: rb.name, Backend: rb.b}
	}
	return out
}

// rendezvousScore is FNV-1a over the backend name, a separator, and
// the EPC, pushed through a murmur3-style finalizer. The finalizer
// matters: raw FNV states for two backends stay correlated after
// absorbing the same EPC suffix, which skews the rendezvous argmax
// (observed ~60% of keys moving to a 4th backend instead of ~25%);
// full avalanche restores the uniform share. 64-bit so score
// collisions between backends are negligible; ties break toward the
// earlier backend deterministically.
func rendezvousScore(name, epc string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	h ^= 0xff // separator: ("ab","c") and ("a","bc") must differ
	h *= 1099511628211
	for i := 0; i < len(epc); i++ {
		h ^= uint64(epc[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// backendFor returns the EPC's rendezvous winner (ignoring overrides):
// the highest score among active members, so draining and spare
// backends take no new EPCs. If no member is active (only reachable
// transiently — Membership.Validate requires an active member) the
// full set competes, preserving the pre-membership behavior. Callers
// hold handoffMu (either side).
func (r *Router) backendFor(epc string) *routerBackend {
	var best *routerBackend
	var bestScore uint64
	for _, rb := range r.backends {
		if rb.roleState() != StateActive {
			continue
		}
		if s := rendezvousScore(rb.name, epc); best == nil || s > bestScore {
			best, bestScore = rb, s
		}
	}
	if best != nil {
		return best
	}
	best = r.backends[0]
	bestScore = rendezvousScore(best.name, epc)
	for _, rb := range r.backends[1:] {
		if s := rendezvousScore(rb.name, epc); s > bestScore {
			best, bestScore = rb, s
		}
	}
	return best
}

// resolveLocked returns the backend currently serving the EPC: its
// migration override if one exists, else the rendezvous winner.
// Callers hold handoffMu (either side).
func (r *Router) resolveLocked(epc string) *routerBackend {
	if rb := r.overrides[epc]; rb != nil {
		return rb
	}
	return r.backendFor(epc)
}

// healthyAmong returns the rendezvous winner among healthy backends,
// excluding one; nil when no healthy candidate exists. Active members
// are preferred, spares are the fallback, and draining members are
// never candidates — a migration must not land sessions on a backend
// that is on its way out.
func (r *Router) healthyAmong(epc string, exclude *routerBackend) *routerBackend {
	pick := func(want BackendState) *routerBackend {
		var best *routerBackend
		var bestScore uint64
		for _, rb := range r.backends {
			if rb == exclude || rb.roleState() != want || !rb.healthy() {
				continue
			}
			if s := rendezvousScore(rb.name, epc); best == nil || s > bestScore {
				best, bestScore = rb, s
			}
		}
		return best
	}
	if rb := pick(StateActive); rb != nil {
		return rb
	}
	return pick(StateSpare)
}

// BackendFor reports which backend (by name) the EPC routes to,
// including any migration override.
func (r *Router) BackendFor(epc string) string {
	r.handoffMu.RLock()
	defer r.handoffMu.RUnlock()
	return r.resolveLocked(epc).name
}

// Backends returns the backend names in configuration (membership)
// order.
func (r *Router) Backends() []string {
	backends := r.snapshotBackends()
	names := make([]string, len(backends))
	for i, rb := range backends {
		names[i] = rb.name
	}
	return names
}

// Health snapshots per-backend dispatch/drop/error counters in
// configuration order.
func (r *Router) Health() []BackendHealth {
	backends := r.snapshotBackends()
	out := make([]BackendHealth, len(backends))
	for i, rb := range backends {
		h := BackendHealth{
			Name:       rb.name,
			Dispatched: rb.dispatched.Load(),
			Dropped:    rb.dropped.Load(),
			Shed:       rb.shed.Load(),
			Errors:     rb.errs.Load(),
			Pings:      rb.pings.Load(),
			PingFails:  rb.pingFails.Load(),
			Healthy:    rb.healthy(),
			State:      rb.roleState(),
		}
		if msg, ok := rb.lastErr.Load().(string); ok {
			h.LastErr = msg
		}
		out[i] = h
	}
	return out
}

// HealthCounts reports how many backends are currently healthy and
// unhealthy — the summary the heartbeat maintains. Without a journal,
// routing is NOT affected by health: an unhealthy backend keeps its
// rendezvous share (mapping stability over failover) and the counts
// exist so an operator can act on them. With a journal, a down
// transition additionally triggers the automatic failover described in
// the Router docs.
func (r *Router) HealthCounts() (healthy, unhealthy int) {
	for _, rb := range r.snapshotBackends() {
		if rb.healthy() {
			healthy++
		} else {
			unhealthy++
		}
	}
	return healthy, unhealthy
}

// StartHeartbeat begins probing every probeable backend (those
// implementing Ping, i.e. remote shardrpc clients) every interval,
// feeding a per-backend probe-failure streak that marks the backend
// unhealthy alongside the call-failure streak — so an idle cluster
// still notices a dead shard within a few intervals, and a shard that
// answers pings while rejecting traffic stays unhealthy. Probes run
// concurrently with bounded fan-out and an explicit per-probe timeout
// (SetProbeTimeout), so one wedged backend cannot delay health
// transitions for the rest; a second StartHeartbeat replaces the
// running one. Call StopHeartbeat
// (or Close, which implies it) to stop; stopping waits out any
// in-flight probe round.
//
// With a journal attached the heartbeat is what makes failover prompt:
// the shardrpc client buffers dispatches for resend instead of
// failing them, so a dead remote shard often surfaces first as a probe
// streak, not a call streak.
func (r *Router) StartHeartbeat(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	r.hbMu.Lock()
	defer r.hbMu.Unlock()
	r.stopHeartbeatLocked()
	stop, done := make(chan struct{}), make(chan struct{})
	r.hbStop, r.hbDone = stop, done
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				r.probeAll()
			case <-stop:
				return
			}
		}
	}()
}

// probeAll pings every probeable backend once, concurrently but with
// bounded fan-out (maxProbeFanout): one unreachable shard blocking on
// its transport must not delay detection of the others, and a wide
// cluster must not spawn a goroutine per backend per interval. Each
// probe gets an explicit timeout (SetProbeTimeout): past the deadline
// the probe is recorded as failed and the wedged transport call is
// left to finish in the background — its backend skips probing (and
// keeps accruing probe failures) until the stuck call returns, so a
// truly hung backend converges to unhealthy at the normal streak pace
// instead of piling up goroutines. Probe outcomes touch only the ping
// streak — see routerBackend.stMu for why a probe success may not
// erase a call-failure streak.
func (r *Router) probeAll() {
	timeout := r.probeTimeout
	if timeout <= 0 {
		timeout = defaultProbeTimeout
	}
	sem := make(chan struct{}, maxProbeFanout)
	var wg sync.WaitGroup
	for _, rb := range r.snapshotBackends() {
		p, ok := rb.b.(pinger)
		if !ok {
			continue
		}
		if !rb.probing.CompareAndSwap(false, true) {
			// The previous probe is still wedged inside the transport.
			// Count this round as a failure so the streak keeps moving
			// toward unhealthy.
			rb.pings.Add(1)
			rb.pingFail(fmt.Errorf("router: probe %s: previous probe still in flight", rb.name))
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(rb *routerBackend, p pinger) {
			defer wg.Done()
			defer func() { <-sem }()
			rb.pings.Add(1)
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- p.Ping(ctx) }()
			select {
			case err := <-done:
				rb.probing.Store(false)
				if err != nil {
					rb.pingFail(err)
				} else {
					rb.pingOK()
				}
			case <-ctx.Done():
				rb.pingFail(fmt.Errorf("router: probe %s: %w", rb.name, ctx.Err()))
				go func() { <-done; rb.probing.Store(false) }()
			}
		}(rb, p)
	}
	wg.Wait()
}

// StopHeartbeat stops the heartbeat loop, if any, and waits for it.
func (r *Router) StopHeartbeat() {
	r.hbMu.Lock()
	defer r.hbMu.Unlock()
	r.stopHeartbeatLocked()
}

func (r *Router) stopHeartbeatLocked() {
	if r.hbStop != nil {
		close(r.hbStop)
		<-r.hbDone
		r.hbStop, r.hbDone = nil, nil
	}
}

// Dropped sums samples dropped across all backends (failed dispatch
// calls, counted sample by sample). With a journal attached these
// samples are retained and replayed on failover, so a drop here is a
// delivery delay, not a loss; the journal's Lost counter is the truth
// about data actually gone.
func (r *Router) Dropped() uint64 {
	var n uint64
	for _, rb := range r.snapshotBackends() {
		n += rb.dropped.Load()
	}
	return n
}

// Shed sums samples refused by admission control across all backends.
// Unlike Dropped, shed samples were never journaled: the caller got
// ErrOverloaded and owns the retry.
func (r *Router) Shed() uint64 {
	var n uint64
	for _, rb := range r.snapshotBackends() {
		n += rb.shed.Load()
	}
	return n
}

// backendDown triggers journal-backed failover for a backend that just
// crossed into unhealthy. Runs the migration on its own goroutine: the
// hook fires from dispatch and probe paths that must not block on
// remote restore calls. The migrating flag dedups the call- and
// ping-streak transitions racing each other.
func (r *Router) backendDown(rb *routerBackend) {
	if r.journal == nil || !rb.migrating.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer rb.migrating.Store(false)
		r.failover(rb)
	}()
}

// Epoch returns the latest applied membership epoch (0 until the first
// ApplyMembership: the constructor's backend set is the pre-epoch
// static configuration).
func (r *Router) Epoch() uint64 {
	r.handoffMu.RLock()
	defer r.handoffMu.RUnlock()
	return r.epoch
}

// Membership snapshots the current routing table: the applied epoch
// and every backend with its state, in routing order.
func (r *Router) Membership() Membership {
	r.handoffMu.RLock()
	defer r.handoffMu.RUnlock()
	m := Membership{Epoch: r.epoch, Members: make([]Member, len(r.backends))}
	for i, rb := range r.backends {
		m.Members[i] = Member{Name: rb.name, Addr: rb.addr, State: rb.roleState()}
	}
	return m
}

// ApplyMembership atomically moves the router to a new epoch-numbered
// routing table, without restarting clients:
//
//   - Members the router doesn't know are dialed (SetDialer) and
//     joined; their rendezvous share starts immediately if active.
//   - Members marked draining stop taking new EPCs and have every live
//     session they serve moved to a healthy target, as Handoff moves
//     one (journal rebuild when the backend can't export). They stay
//     members — an operator removes them with a later epoch once their
//     drain is confirmed.
//   - Current backends absent from the table leave: they are drained
//     the same way and then detached (shardrpc transports) or closed
//     (in-process backends) once they own nothing.
//
// An epoch not strictly greater than the current one is rejected with
// ErrStaleEpoch, so replayed or crossing updates are harmless. The
// update is atomic from the dispatch path's point of view: traffic
// observes either the old table or the new one, and a draining
// backend keeps serving each of its sessions until that session's own
// migration completes, so no sample is lost or reordered mid-drain.
// Each applied epoch publishes one EventMembership. Errors from
// individual joins or per-EPC migrations are joined and returned; the
// epoch still applies (retry the stragglers with a later epoch).
func (r *Router) ApplyMembership(ctx context.Context, m Membership) error {
	if err := m.Validate(); err != nil {
		return err
	}
	m = m.clone()
	r.mshipMu.Lock()
	defer r.mshipMu.Unlock()

	r.handoffMu.RLock()
	cur, closed := r.epoch, r.closed
	current := make(map[string]*routerBackend, len(r.backends))
	for _, rb := range r.backends {
		current[rb.name] = rb
	}
	r.handoffMu.RUnlock()
	if closed {
		return ErrClosed
	}
	if m.Epoch <= cur {
		return fmt.Errorf("%w: epoch %d <= current %d", ErrStaleEpoch, m.Epoch, cur)
	}

	// Dial joins outside the routing lock: a slow dial must not stall
	// dispatch traffic. mshipMu keeps the backend set stable meanwhile.
	var errs []error
	joined := make(map[string]*routerBackend)
	for _, mem := range m.Members {
		if current[mem.Name] != nil || joined[mem.Name] != nil {
			continue
		}
		if r.dialer == nil {
			errs = append(errs, fmt.Errorf("router: join %s: no dialer configured", mem.Name))
			continue
		}
		addr := mem.Addr
		if addr == "" {
			addr = mem.Name
		}
		b, err := r.dialer(mem.Name, addr)
		if err != nil {
			errs = append(errs, fmt.Errorf("router: join %s: %w", mem.Name, err))
			continue
		}
		rb := &routerBackend{name: mem.Name, addr: addr, b: b, hub: &r.hub}
		rb.state.Store(int32(mem.State))
		rb.onDown = func() { r.backendDown(rb) }
		rb.lat = r.tel.backendHist(mem.Name)
		joined[mem.Name] = rb
	}

	// Swap in the new table under the write lock: new member order plus
	// the leavers (appended, so their pinned sessions keep resolving to
	// them until each drains). States flip here too — except draining,
	// which flips inside drainBackend AFTER its sessions are pinned, so
	// no EPC re-routes away from a still-loaded backend without a
	// migration.
	var next []*routerBackend
	var leaving, toDrain []*routerBackend
	inTable := make(map[string]bool, len(m.Members))
	r.handoffMu.Lock()
	for _, mem := range m.Members {
		inTable[mem.Name] = true
		rb := current[mem.Name]
		if rb == nil {
			rb = joined[mem.Name]
		}
		if rb == nil {
			continue // failed join, reported above
		}
		if mem.State == StateDraining {
			toDrain = append(toDrain, rb)
		} else {
			rb.state.Store(int32(mem.State))
		}
		next = append(next, rb)
	}
	for _, rb := range r.backends {
		if !inTable[rb.name] {
			leaving = append(leaving, rb)
			next = append(next, rb)
		}
	}
	// Joins shift rendezvous winners, but a mid-stroke session's decode
	// state lives where its samples have been flowing: re-routing it
	// without a move would silently fork the stroke. So every EPC the
	// new table would move is pinned to its current owner until the
	// stroke ends (strokeDone) or a drain moves it.
	pins := make(map[string]*routerBackend)
	for _, rb := range r.backends {
		for _, epc := range r.servedLocked(ctx, rb) {
			if r.overrides[epc] == nil {
				pins[epc] = rb
			}
		}
	}
	r.backends = next
	r.epoch = m.Epoch
	for epc, rb := range pins {
		if r.backendFor(epc) != rb {
			r.setOverrideLocked(epc, rb)
		}
	}
	r.handoffMu.Unlock()

	// Joined backends participate in event forwarding if it is armed.
	r.fwdMu.Lock()
	if r.fwdArmed {
		for _, rb := range joined {
			r.armBackendLocked(rb)
		}
	}
	r.fwdMu.Unlock()

	// Drain: draining members first, then leavers.
	toDrain = append(toDrain, leaving...)
	for _, rb := range toDrain {
		if err := r.drainBackend(ctx, rb); err != nil {
			errs = append(errs, err)
		}
	}

	// A leaver that owns nothing anymore is removed and its transport
	// released; one that still owns sessions (its drain failed) stays
	// in the table as draining for a later epoch to retry.
	for _, rb := range leaving {
		if !r.removeBackend(rb) {
			errs = append(errs, fmt.Errorf("router: leave %s: sessions still pinned after drain", rb.name))
			continue
		}
		r.stopForwarding(rb)
		if d, ok := rb.b.(detacher); ok {
			if err := d.Detach(); err != nil {
				errs = append(errs, fmt.Errorf("router: leave %s: %w", rb.name, err))
			}
		} else if _, err := rb.b.Close(ctx); err != nil {
			errs = append(errs, fmt.Errorf("router: leave %s: %w", rb.name, err))
		}
	}

	r.hub.Publish(Event{Kind: EventMembership, Epoch: m.Epoch, Members: m.Members})
	return errors.Join(errs...)
}

// removeBackend takes rb out of the routing table, refusing when any
// session still resolves to it.
func (r *Router) removeBackend(rb *routerBackend) bool {
	r.handoffMu.Lock()
	defer r.handoffMu.Unlock()
	for _, owner := range r.overrides {
		if owner == rb {
			return false
		}
	}
	next := make([]*routerBackend, 0, len(r.backends))
	for _, b := range r.backends {
		if b != rb {
			next = append(next, b)
		}
	}
	r.backends = next
	return true
}

// Open routes the per-session open to the EPC's serving backend,
// recording the options in the journal first so a failover before the
// first checkpoint can re-open the session faithfully.
func (r *Router) Open(ctx context.Context, epc string, opts OpenOptions) error {
	r.ensureRoutable(epc)
	r.handoffMu.RLock()
	defer r.handoffMu.RUnlock()
	if r.closed {
		return ErrClosed
	}
	if r.journal != nil {
		if err := r.journal.RecordOpen(epc, opts); err != nil {
			return fmt.Errorf("router: journal: %w", err)
		}
	}
	rb := r.resolveLocked(epc)
	return rb.settle(ctx, rb.b.Open(ctx, epc, opts))
}

// anyHealthyLocked reports whether at least one backend is healthy.
// Only evaluated on the cold path (the resolved backend is already
// down); callers hold handoffMu (either side).
func (r *Router) anyHealthyLocked() bool {
	for _, rb := range r.backends {
		if rb.healthy() {
			return true
		}
	}
	return false
}

// admitTrialLocked gates the open-circuit fast failure when every
// backend is unhealthy: it returns false when the dispatch must fail
// fast, true when it may proceed as a half-open trial (at most one per
// backend per halfOpenEvery) so the call streak can observe a
// recovery. Callers hold handoffMu (either side).
func (r *Router) admitTrialLocked(rb *routerBackend) bool {
	now := time.Now().UnixNano()
	last := rb.lastTrial.Load()
	return now-last >= int64(halfOpenEvery) && rb.lastTrial.CompareAndSwap(last, now)
}

// Dispatch routes one sample to its EPC's serving backend, appending
// it to the journal (when attached) before the backend call — the
// write-ahead that makes a failed dispatch a delay instead of a loss.
//
// Two guards run before the journal sees the sample, so a rejected
// sample is not recorded twice when the caller retries it. When every
// backend is unhealthy, Dispatch fails fast with a typed
// ErrBackendUnavailable (one half-open trial per backend per interval
// still goes through — that trial is how recovery is detected). When
// admission control is configured (SetAdmission) and a budget is
// exhausted, Dispatch sheds with ErrOverloaded instead of queueing
// behind a saturated shard.
func (r *Router) Dispatch(ctx context.Context, smp reader.Sample) error {
	r.ensureRoutable(smp.EPC)
	r.handoffMu.RLock()
	defer r.handoffMu.RUnlock()
	if r.closed {
		return ErrClosed
	}
	return r.sendLocked(ctx, r.resolveLocked(smp.EPC), smp, nil)
}

// sendLocked delivers samples bound for rb — batch when non-nil, else
// the single smp — the way Dispatch describes: the pre-journal guards
// pass or refuse them whole, so no EPC's sample order is split across
// an accept/reject boundary; then the journal append and one backend
// call. Callers hold handoffMu's read side.
func (r *Router) sendLocked(ctx context.Context, rb *routerBackend, smp reader.Sample, batch []reader.Sample) error {
	n := max(len(batch), 1)
	if err := r.admitLocked(rb, n); err != nil {
		return err
	}
	if a := r.admission; a != nil {
		defer a.releaseBackend(rb)
	}
	if r.journal != nil {
		var err error
		if batch == nil {
			err = r.journalAppend(smp)
		}
		for i := 0; i < len(batch) && err == nil; i++ {
			err = r.journalAppend(batch[i])
		}
		if err != nil {
			return err
		}
	}
	rb.dispatched.Add(uint64(n))
	var t0 time.Time
	if r.tel != nil {
		t0 = time.Now()
	}
	var err error
	if batch == nil {
		err = rb.b.Dispatch(ctx, smp)
	} else {
		err = rb.b.DispatchBatch(ctx, batch)
	}
	if err != nil {
		rb.dropped.Add(uint64(n))
	} else if r.tel != nil {
		rb.lat.Observe(time.Since(t0).Seconds())
	}
	return rb.settle(ctx, err)
}

// admitLocked runs the pre-journal guards (see Dispatch) for n samples
// bound for rb. On nil with admission on, the caller holds an
// in-flight slot and must release it.
func (r *Router) admitLocked(rb *routerBackend, n int) error {
	if !rb.healthy() && !r.anyHealthyLocked() && !r.admitTrialLocked(rb) {
		rb.dropped.Add(uint64(n))
		return fmt.Errorf("router: backend %s: %w: every backend unhealthy", rb.name, ErrBackendUnavailable)
	}
	a := r.admission
	if a == nil {
		return nil
	}
	why := ""
	if !a.admitBackend(rb) {
		why = "in-flight budget exhausted"
	} else if !a.admitRate(n) {
		a.releaseBackend(rb)
		why = "sample rate exceeded"
	}
	if why == "" {
		return nil
	}
	rb.shed.Add(uint64(n))
	if r.tel != nil {
		r.tel.sheds.Add(int64(n))
	}
	return fmt.Errorf("router: backend %s: %w: %s", rb.name, ErrOverloaded, why)
}

// journalAppend appends one sample to the WAL, timing it when
// telemetry is on.
func (r *Router) journalAppend(smp reader.Sample) error {
	var t0 time.Time
	if r.tel != nil {
		t0 = time.Now()
	}
	if _, err := r.journal.Append(smp); err != nil {
		return fmt.Errorf("router: journal: %w", err)
	}
	if r.tel != nil {
		r.tel.journalAppend.Observe(time.Since(t0).Seconds())
	}
	return nil
}

// DispatchBatch partitions the batch by backend — preserving per-EPC
// order — and forwards each sub-batch with one call, so a remote
// backend sees one framed message per report instead of one per
// sample. A failing backend drops only its own sub-batch; the rest
// still dispatch. The joined errors are returned.
func (r *Router) DispatchBatch(ctx context.Context, batch []reader.Sample) error {
	if len(batch) == 0 {
		return nil
	}
	if r.journal != nil {
		seen := make(map[string]bool, 4)
		for _, smp := range batch {
			if !seen[smp.EPC] {
				seen[smp.EPC] = true
				r.ensureRoutable(smp.EPC)
			}
		}
	}
	r.handoffMu.RLock()
	defer r.handoffMu.RUnlock()
	if r.closed {
		return ErrClosed
	}
	// Partition in first-seen order. The common case (a report from
	// one reader, handful of pens) stays allocation-light.
	type part struct {
		rb  *routerBackend
		sub []reader.Sample
	}
	var parts []part
	idx := make(map[*routerBackend]int, len(r.backends))
	for _, smp := range batch {
		rb := r.resolveLocked(smp.EPC)
		i, ok := idx[rb]
		if !ok {
			i = len(parts)
			idx[rb] = i
			parts = append(parts, part{rb: rb})
		}
		parts[i].sub = append(parts[i].sub, smp)
	}
	var errs []error
	for _, p := range parts {
		if err := r.sendLocked(ctx, p.rb, reader.Sample{}, p.sub); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Finalize routes to the EPC's serving backend. On a decided outcome
// the journal's stroke is released and the routing override dropped:
// the stroke is over.
func (r *Router) Finalize(ctx context.Context, epc string) (*core.Result, error) {
	r.handoffMu.RLock()
	rb, closed := r.resolveLocked(epc), r.closed
	r.handoffMu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	res, err := rb.b.Finalize(ctx, epc)
	rb.settle(ctx, err)
	if err == nil || errors.Is(err, core.ErrTooFewSamples) {
		r.strokeDone(epc, rb)
	}
	return res, err
}

// strokeDone releases an EPC's journal records and routing override
// after its session ended on backend by. Also invoked from the event
// forwarder when the owning backend reports an eviction (by nil: the
// eviction is the stroke's last event). If Finalize ends a stroke on
// an override before its eviction was forwarded, by is remembered so
// forwardFrom still relays the stroke's trailing events from it (only
// while by's events are forwarded at all: otherwise no eviction would
// ever end the exception).
func (r *Router) strokeDone(epc string, by *routerBackend) {
	if j := r.journal; j != nil {
		j.Release(epc)
	}
	if by != nil {
		r.fwdMu.Lock()
		if by.fwdDone == nil {
			by = nil
		}
		r.fwdMu.Unlock()
	}
	r.handoffMu.Lock()
	if by != nil && r.overrides[epc] == by {
		r.finishedOn[epc] = by
	} else {
		delete(r.finishedOn, epc)
	}
	delete(r.overrides, epc)
	r.handoffMu.Unlock()
}

// fanOut runs call on every backend in turn, recording each outcome on
// the backend's health (unless ctx ended), and joins the failures;
// ErrClosed once Close has begun.
func (r *Router) fanOut(ctx context.Context, call func(ShardBackend) error) error {
	r.handoffMu.RLock()
	backends, closed := append([]*routerBackend(nil), r.backends...), r.closed
	r.handoffMu.RUnlock()
	if closed {
		return ErrClosed
	}
	var errs []error
	for _, rb := range backends {
		if err := rb.settle(ctx, call(rb.b)); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Stats merges every backend's snapshots, sorted by EPC. Backends that
// fail contribute nothing; their errors are joined and returned
// alongside the stats gathered from the rest.
func (r *Router) Stats(ctx context.Context) ([]Stats, error) {
	var out []Stats
	err := r.fanOut(ctx, func(b ShardBackend) error {
		st, err := b.Stats(ctx)
		out = append(out, st...)
		return err
	})
	sortStats(out)
	return out, err
}

// EvictIdle sweeps every backend and sums the evictions.
func (r *Router) EvictIdle(ctx context.Context, maxIdle time.Duration) (int, error) {
	n := 0
	err := r.fanOut(ctx, func(b ShardBackend) error {
		k, err := b.EvictIdle(ctx, maxIdle)
		n += k
		return err
	})
	return n, err
}

// Len sums the live sessions of every backend (see Stats for how
// failures are reported).
func (r *Router) Len(ctx context.Context) (int, error) {
	n := 0
	err := r.fanOut(ctx, func(b ShardBackend) error {
		k, err := b.Len(ctx)
		n += k
		return err
	})
	return n, err
}

// Export removes the EPC's session from its serving backend and
// returns its serialized state; any routing override is dropped with
// it.
func (r *Router) Export(ctx context.Context, epc string) ([]byte, error) {
	r.handoffMu.Lock()
	defer r.handoffMu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	rb := r.resolveLocked(epc)
	state, err := rb.b.Export(ctx, epc)
	if err = rb.settle(ctx, err); err != nil {
		return nil, err
	}
	delete(r.overrides, epc)
	return state, nil
}

// Restore rebuilds the EPC's session on its serving backend — or, if
// that backend is down and a journal is attached, on the healthy
// rendezvous runner-up, pinning the override.
func (r *Router) Restore(ctx context.Context, epc string, state []byte) error {
	r.handoffMu.Lock()
	defer r.handoffMu.Unlock()
	if r.closed {
		return ErrClosed
	}
	rb := r.resolveLocked(epc)
	if !rb.healthy() && r.journal != nil {
		if alt := r.healthyAmong(epc, rb); alt != nil {
			rb = alt
		}
	}
	if err := rb.settle(ctx, rb.b.Restore(ctx, epc, state)); err != nil {
		return err
	}
	if rb != r.backendFor(epc) {
		r.setOverrideLocked(epc, rb)
	}
	return nil
}

// SetEventBuffer sets the per-subscriber channel capacity for
// Subscribe (default DefaultEventBuffer). Call before the first
// Subscribe.
func (r *Router) SetEventBuffer(n int) { r.eventBuffer = n }

// armForwarding establishes the upstream subscriptions that merge
// every backend's event stream into the router's hub (kept until
// Close). Backends that join later are armed individually as they
// join.
func (r *Router) armForwarding() {
	r.handoffMu.RLock()
	backends, closed := append([]*routerBackend(nil), r.backends...), r.closed
	r.handoffMu.RUnlock()
	if closed {
		return // Close has stopped forwarding for good
	}
	r.fwdMu.Lock()
	defer r.fwdMu.Unlock()
	r.fwdArmed = true
	for _, rb := range backends {
		r.armBackendLocked(rb)
	}
}

// armBackendLocked starts (idempotently) the forwarder goroutine for
// one backend. Caller holds fwdMu.
func (r *Router) armBackendLocked(rb *routerBackend) {
	if rb.fwdDone != nil {
		return
	}
	ch, cancel := rb.b.Subscribe(context.Background())
	done := make(chan struct{})
	rb.fwdCancel, rb.fwdDone = cancel, done
	go func() {
		defer close(done)
		for ev := range ch {
			r.forwardFrom(rb, ev)
		}
	}()
}

// stopForwarding cancels one backend's forwarder and waits for it to
// drain; a no-op when it was never armed.
func (r *Router) stopForwarding(rb *routerBackend) {
	r.fwdMu.Lock()
	cancel, done := rb.fwdCancel, rb.fwdDone
	rb.fwdCancel, rb.fwdDone = nil, nil
	r.fwdMu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
}

// forwardFrom relays one backend's event into the router's stream.
// Per-EPC events from a backend that is not the EPC's current owner
// are suppressed: after a failover, the old (dead, possibly
// recovering) backend may still hold a stale incarnation of the
// stroke whose events would duplicate or contradict the live one's.
// Checkpoint events are absorbed into the journal (when attached)
// instead of reaching subscribers, and an owner-reported eviction
// releases the stroke. The one exception to owner-only forwarding is a
// stroke Finalize ended on an override: the backend that finalized it
// still relays its trailing events, up to and including its eviction
// (see strokeDone).
func (r *Router) forwardFrom(rb *routerBackend, ev Event) {
	if ev.EPC != "" {
		r.handoffMu.RLock()
		owner := r.resolveLocked(ev.EPC)
		finisher := r.finishedOn[ev.EPC]
		r.handoffMu.RUnlock()
		if owner != rb {
			if finisher == rb && ev.Kind != EventCheckpoint {
				r.forwardTrailing(rb, ev)
			}
			return
		}
	}
	switch ev.Kind {
	case EventCheckpoint:
		if j := r.journal; j != nil {
			_ = j.SaveCheckpoint(ev.EPC, int(ev.Covered), ev.State)
			return
		}
	case EventEvict:
		r.strokeDone(ev.EPC, nil)
	case EventMembership:
		// A shard server pushed a new routing table: apply
		// it instead of forwarding it verbatim. Asynchronously, because
		// ApplyMembership takes the routing write lock and may drain
		// whole backends while this forwarder must keep consuming its
		// stream. Stale epochs are rejected inside ApplyMembership —
		// including the echo of a table this router itself distributed —
		// and each applied epoch publishes exactly one EventMembership.
		m := Membership{Epoch: ev.Epoch, Members: append([]Member(nil), ev.Members...)}
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), failoverTimeout)
			defer cancel()
			_ = r.ApplyMembership(ctx, m)
		}()
		return
	}
	r.hub.Publish(ev)
}

// setOverrideLocked routes epc to rb until its stroke ends. The new
// placement also ends any trailing-event exception an earlier stroke
// of the EPC left behind (see strokeDone), so a lost eviction cannot
// let that backend's stale events through later. Caller holds
// handoffMu.
func (r *Router) setOverrideLocked(epc string, rb *routerBackend) {
	r.overrides[epc] = rb
	delete(r.finishedOn, epc)
}

// forwardTrailing relays an event of a stroke rb finalized after the
// EPC's override was dropped. The stroke is already released, so the
// eviction only ends the exception.
func (r *Router) forwardTrailing(rb *routerBackend, ev Event) {
	if ev.Kind == EventEvict {
		r.handoffMu.Lock()
		if r.finishedOn[ev.EPC] == rb {
			delete(r.finishedOn, ev.EPC)
		}
		r.handoffMu.Unlock()
	}
	r.hub.Publish(ev)
}

// Subscribe merges every backend's event stream — sessions events flow
// from whichever shard owns the EPC — and adds the router's own
// EventBackendHealth transitions. Upstream subscriptions are
// established on the first Subscribe (or on SetJournal) and kept until
// Close; per-EPC event order is preserved because an EPC lives on
// exactly one serving backend at a time.
func (r *Router) Subscribe(ctx context.Context) (<-chan Event, CancelFunc) {
	return r.SubscribeFiltered(ctx, SubscribeOptions{})
}

// SubscribeFiltered is Subscribe narrowed by opts (kind/EPC
// allow-lists, see SubscribeOptions). Filtering happens at the
// router's hub: the upstream per-backend subscriptions stay
// unfiltered, since the router itself consumes checkpoint and
// membership events from them. After Close the channel comes back
// already closed.
func (r *Router) SubscribeFiltered(ctx context.Context, opts SubscribeOptions) (<-chan Event, CancelFunc) {
	r.armForwarding()
	return r.hub.SubscribeFiltered(ctx, r.eventBuffer, opts)
}

// EventsDropped counts events shed at the router's own full subscriber
// buffers (drops inside the backends are counted by the backends).
func (r *Router) EventsDropped() uint64 { return r.hub.Dropped() }

// Close rejects further calls with ErrClosed, stops the heartbeat and
// event forwarding, closes every backend concurrently, and merges their
// results. When a failover left a stale incarnation of an EPC on its
// former backend, the serving backend's result wins. Close is
// idempotent; later calls return (nil, nil).
func (r *Router) Close(ctx context.Context) (map[string]*core.Result, error) {
	r.handoffMu.Lock()
	if r.closed {
		r.handoffMu.Unlock()
		return nil, nil
	}
	r.closed = true
	backends := append([]*routerBackend(nil), r.backends...)
	r.handoffMu.Unlock()
	r.StopHeartbeat()
	results := make([]map[string]*core.Result, len(backends))
	var errs []error
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, rb := range backends {
		wg.Add(1)
		go func(i int, rb *routerBackend) {
			defer wg.Done()
			res, err := rb.b.Close(ctx)
			if err != nil {
				mu.Lock()
				errs = append(errs, fmt.Errorf("router: backend %s: %w", rb.name, err))
				mu.Unlock()
				return
			}
			results[i] = res
		}(i, rb)
	}
	wg.Wait()
	out := make(map[string]*core.Result)
	r.handoffMu.RLock()
	for i, rb := range backends {
		for epc, res := range results[i] {
			if _, dup := out[epc]; !dup || r.resolveLocked(epc) == rb {
				out[epc] = res
			}
		}
	}
	r.handoffMu.RUnlock()
	// Flush the event stream before returning: cancel the upstream
	// subscriptions and wait for the forwarders to drain what the
	// backends published during their Close (Evict events et al.), so a
	// subscriber that cancels after Close has everything buffered.
	for _, rb := range backends {
		r.stopForwarding(rb)
	}
	// With the stream flushed, end the router's own subscriptions too,
	// so consumers ranging over Subscribe's channel terminate — the
	// same termination contract every backend's Close honours.
	r.hub.CloseAll()
	return out, errors.Join(errs...)
}
