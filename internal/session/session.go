// Package session multiplexes many pens (tags) over one tracking
// process: the serving layer the paper's section 7 multi-user
// discussion sketches. A Manager demultiplexes a mixed tag-report
// stream by EPC into per-pen sessions, each owning a bounded sample
// queue drained by a dedicated goroutine into an incremental
// core.StreamTracker. Sessions carry their own metrics (received,
// dropped, windows, queue depth) and are evicted — finalized and
// reported — on demand, on idleness, or when the session cap is hit.
//
// One Manager shares a single core.Tracker, so the expensive HMM grid
// is built once no matter how many pens stream concurrently.
package session

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"polardraw/internal/core"
	"polardraw/internal/geom"
	"polardraw/internal/metrics"
	"polardraw/internal/reader"
	"polardraw/internal/telemetry"
)

// Defaults for Config zero values.
const (
	DefaultQueueSize   = 256
	DefaultMaxSessions = 64
)

// The serving error taxonomy. Every backend — in-process, shardrpc
// client, router — returns these sentinels for the corresponding
// conditions, and the shardrpc wire protocol round-trips them, so
// errors.Is works identically however a deployment is topologized.
var (
	// ErrClosed: the backend (or its manager) has been closed; the
	// operation was not performed.
	ErrClosed = errors.New("session: manager closed")
	// ErrUnknownEPC: the EPC has no live session.
	ErrUnknownEPC = errors.New("session: unknown EPC")
	// ErrSessionLimit: an explicit Open would exceed the backend's
	// MaxSessions cap. (Sessions auto-created by Dispatch instead evict
	// the least-recently-active session; an explicit Open never evicts
	// someone else's session silently.)
	ErrSessionLimit = errors.New("session: session limit reached")
	// ErrBackendUnavailable: the backend's transport failed (dial,
	// write, or read) before the operation could complete. Local
	// backends never return it.
	ErrBackendUnavailable = errors.New("session: backend unavailable")

	// ErrSessionClosed reports an enqueue racing its session's
	// eviction; Dispatch retries it internally.
	ErrSessionClosed = errors.New("session: session closed")

	// ErrOverloaded: admission control shed the sample (or batch)
	// because an in-flight budget or the token-bucket sample rate was
	// exhausted (see AdmissionConfig). The sample was not journaled and
	// not dispatched; callers may retry after backing off.
	ErrOverloaded = errors.New("session: overloaded")
)

// Config parameterizes a Manager.
type Config struct {
	// Tracker is the core pipeline configuration shared by every
	// session (zero fields take the paper's defaults).
	Tracker core.Config
	// QueueSize bounds each session's sample queue (default 256).
	QueueSize int
	// MaxSessions caps concurrently live sessions (default 64). When a
	// new EPC would exceed the cap, the least-recently-active session
	// is evicted: finalized and published as an EventEvict.
	MaxSessions int
	// DropWhenFull selects the backpressure policy for a full queue:
	// false (default) blocks the dispatcher until the worker drains —
	// true backpressure toward the LLRP socket; true drops the sample
	// and counts it, favouring liveness over completeness.
	DropWhenFull bool
	// EventBuffer bounds each event subscriber's channel (default
	// DefaultEventBuffer). A subscriber that lets its buffer fill loses
	// events rather than stalling decode workers.
	EventBuffer int
	// CheckpointEvery, when > 0, makes every session emit an
	// EventCheckpoint (a core.StreamTracker snapshot plus the covered
	// sample count) after every N closed windows, the feed a
	// journal-equipped Router persists for crash recovery and handoff.
	// Checkpoints are taken on the session worker between pushes so
	// each snapshot is consistent with its covered count; 0 disables.
	CheckpointEvery int

	// Telemetry, when non-nil, receives the decode and session-manager
	// metrics (window-close latency, beam width, commit kinds, queue
	// depth, evictions). Nil disables instrumentation entirely — the
	// hot path pays a single nil check.
	Telemetry *telemetry.Registry
}

// managerTelemetry caches the session layer's metric handles so the
// hot path never touches the registry map. A nil *managerTelemetry
// (telemetry off) short-circuits every observation.
type managerTelemetry struct {
	windowClose   *telemetry.Histogram // decode latency of pushes that close >= 1 window
	beamWidth     *telemetry.Histogram // active beam cells at window close
	commitsMerge  *telemetry.Counter
	commitsForced *telemetry.Counter
	queueDepth    *telemetry.Histogram // session queue occupancy at enqueue
	evictions     *telemetry.Counter
}

func newManagerTelemetry(r *telemetry.Registry) *managerTelemetry {
	if r == nil {
		return nil
	}
	return &managerTelemetry{
		windowClose:   r.Histogram("polardraw_decode_window_close_seconds"),
		beamWidth:     r.Histogram("polardraw_decode_beam_width"),
		commitsMerge:  r.Counter(`polardraw_decode_commits_total{kind="merge"}`),
		commitsForced: r.Counter(`polardraw_decode_commits_total{kind="forced"}`),
		queueDepth:    r.Histogram("polardraw_session_queue_depth"),
		evictions:     r.Counter("polardraw_session_evictions_total"),
	}
}

// Stats is a point-in-time snapshot of one session's counters.
type Stats struct {
	EPC string
	// Received counts samples dispatched to the session; QueueDropped
	// counts those discarded at a full queue (DropWhenFull mode);
	// LateDropped counts samples the tracker rejected as belonging to
	// already-closed windows.
	Received, QueueDropped, LateDropped uint64
	// Windows is the number of closed (valid) preprocessing windows.
	Windows int
	// QueueMeanDepth and QueueMaxDepth summarize occupancy observed at
	// enqueue time.
	QueueMeanDepth float64
	QueueMaxDepth  int
	// Live is the tracker's latest position estimate; HasLive reports
	// whether any window has closed yet.
	Live    geom.Vec2
	HasLive bool
	// Decode is the session decoder's telemetry snapshot (active-set
	// size, beam occupancy, merge-vs-forced commit counts, stencil-
	// cache hits), taken at the most recent window close. Zero under
	// GreedyDecode or before the first window.
	Decode core.DecodeStats
	// LastActive is when the session last received a sample.
	LastActive time.Time
}

// session is one pen's streaming state.
type session struct {
	epc string

	// sendMu serializes enqueues against close: Dispatch holds the read
	// side (possibly blocking on a full queue), stop takes the write
	// side, so the queue channel is never closed mid-send.
	sendMu sync.RWMutex
	closed bool
	queue  chan reader.Sample
	done   chan struct{} // worker exited

	received     atomic.Uint64
	queueDropped atomic.Uint64
	lateDropped  atomic.Uint64
	lastActive   atomic.Int64 // UnixNano
	depth        metrics.Running

	// Worker-owned tracker; shared fields below are the only state
	// other goroutines read, updated by the worker under liveMu.
	st      *core.StreamTracker
	liveMu  sync.Mutex
	live    geom.Vec2
	hasLive bool
	windows int
	decode  core.DecodeStats
	// committed mirrors the smoother's committed trajectory prefix
	// (every OnCommit segment concatenated), so commit events can be
	// replayed to subscribers that attach — or re-attach after a
	// reconnect — mid-stroke.
	committed geom.Polyline

	// maybeCheckpoint, when non-nil, is invoked by the worker between
	// pushes to emit periodic EventCheckpoint snapshots.
	maybeCheckpoint func()

	// tel is the manager's cached metric handles (nil = telemetry off).
	tel *managerTelemetry
}

// Manager demultiplexes a mixed sample stream into per-EPC sessions.
type Manager struct {
	cfg     Config
	tracker *core.Tracker
	events  EventHub
	tel     *managerTelemetry

	mu       sync.Mutex
	sessions map[string]*session
	closed   bool

	// windowHook, when set, runs on a session's worker after each
	// window close. In-package tests use it to wedge a worker; set it
	// before the first session starts.
	windowHook func(epc string)
}

// NewManager builds a manager; zero Config fields take defaults.
func NewManager(cfg Config) *Manager {
	return newManagerWith(cfg, core.New(cfg.Tracker))
}

// newManagerWith builds a manager around an existing tracker, so a
// sharded deployment shares one precomputed HMM grid across shards.
func newManagerWith(cfg Config, tr *core.Tracker) *Manager {
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = DefaultQueueSize
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	return &Manager{
		cfg:      cfg,
		tracker:  tr,
		tel:      newManagerTelemetry(cfg.Telemetry),
		sessions: make(map[string]*session),
	}
}

// Subscribe attaches a consumer to the manager's unified event stream:
// WindowClose/Point per closed window, Commit segments from the
// fixed-lag smoother, and Evict outcomes, across every session. Events
// are delivered on a buffered channel (Config.EventBuffer) and dropped
// — never blocking decode workers — when the consumer falls behind.
// Cancel (or ctx expiry) detaches and closes the channel.
func (m *Manager) Subscribe(ctx context.Context) (<-chan Event, CancelFunc) {
	return m.events.Subscribe(ctx, m.cfg.EventBuffer)
}

// SubscribeFiltered is Subscribe narrowed by opts: only events
// matching the kind/EPC allow-lists are delivered (and only they
// occupy the subscriber's buffer).
func (m *Manager) SubscribeFiltered(ctx context.Context, opts SubscribeOptions) (<-chan Event, CancelFunc) {
	return m.events.SubscribeFiltered(ctx, m.cfg.EventBuffer, opts)
}

// EventsDropped counts events shed at full subscriber buffers.
func (m *Manager) EventsDropped() uint64 { return m.events.Dropped() }

// Open eagerly creates the EPC's session with per-session decode
// options overlaying the manager's base tracker configuration. Unlike
// the implicit create on first Dispatch, Open never evicts another
// session to make room: at the MaxSessions cap it fails with
// ErrSessionLimit. Opening an EPC that already has a live session is a
// no-op returning nil — the live session keeps the configuration it
// was created with. The options last for the lifetime of this session
// instance; once it is finalized or evicted, the EPC reverts to the
// manager defaults (a later Dispatch re-creates it unconfigured).
func (m *Manager) Open(epc string, opts OpenOptions) error {
	if err := opts.Validate(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if _, ok := m.sessions[epc]; ok {
		return nil
	}
	if len(m.sessions) >= m.cfg.MaxSessions {
		return ErrSessionLimit
	}
	m.sessions[epc] = m.startSession(epc, opts)
	return nil
}

// Export removes the EPC's live session and returns its serialized
// mid-stroke state (core.StreamTracker.Snapshot): the stroke is no
// longer this manager's — no Evict event fires, nothing is finalized —
// and the caller is expected to Restore it elsewhere. The queue is
// drained first, so the snapshot covers every sample dispatched before
// the call.
func (m *Manager) Export(epc string) ([]byte, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	s, ok := m.sessions[epc]
	if !ok {
		m.mu.Unlock()
		return nil, ErrUnknownEPC
	}
	delete(m.sessions, epc)
	m.mu.Unlock()
	s.stop()
	return s.st.Snapshot()
}

// Restore installs a session rebuilt from exported or checkpointed
// state (see Export and Config.CheckpointEvery). The restored session
// keeps the stream-level decode configuration embedded in the
// snapshot. If the EPC already has a live session — an implicit
// auto-create that raced the handoff — that session is stopped and its
// partial state discarded in favour of the snapshot (the samples it
// absorbed are exactly the ones the journal replays after restore).
// Subscribers receive a catch-up EventCommit carrying the restored
// committed prefix, so the commit stream has no gap across a handoff.
func (m *Manager) Restore(epc string, state []byte) error {
	st, err := m.tracker.RestoreStream(state)
	if err != nil {
		return err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	stale := m.sessions[epc]
	delete(m.sessions, epc)
	var evict *session
	if stale == nil && len(m.sessions) >= m.cfg.MaxSessions {
		evict = m.lruLocked()
		delete(m.sessions, evict.epc)
	}
	s := m.wireSession(epc, st)
	// Seed the mirrors from the snapshot so Stats and commit replay
	// are correct before the first post-restore window closes.
	s.received.Store(uint64(st.Received()))
	s.lateDropped.Store(uint64(st.Dropped()))
	if live, ok := st.Latest(); ok {
		s.live, s.hasLive = live, true
	}
	s.windows = st.Windows()
	s.decode = st.DecodeStats()
	s.committed = st.Committed()
	m.sessions[epc] = s
	m.mu.Unlock()

	if stale != nil {
		stale.stop()
	}
	if evict != nil {
		m.finalizeSession(evict)
	}
	if m.events.HasSubscribers() {
		if seg := append(geom.Polyline(nil), s.committed...); len(seg) > 0 {
			m.events.Publish(Event{Kind: EventCommit, EPC: epc, CommitStart: 0, Segment: seg})
		}
	}
	return nil
}

// CommittedPrefixes snapshots every live session's committed
// trajectory prefix — the feed shardrpc servers use to replay commits
// to subscribers that (re)attach mid-stroke.
func (m *Manager) CommittedPrefixes() map[string]geom.Polyline {
	m.mu.Lock()
	list := make([]*session, 0, len(m.sessions))
	for _, s := range m.sessions {
		list = append(list, s)
	}
	m.mu.Unlock()
	out := make(map[string]geom.Polyline, len(list))
	for _, s := range list {
		s.liveMu.Lock()
		if len(s.committed) > 0 {
			out[s.epc] = append(geom.Polyline(nil), s.committed...)
		}
		s.liveMu.Unlock()
	}
	return out
}

// Dispatch routes one sample to its EPC's session, creating the
// session on first sight (evicting the least-recently-active one if
// the cap is reached). With DropWhenFull unset, Dispatch blocks while
// the session queue is full. A sample racing an eviction of its own
// session is re-dispatched into a fresh session rather than failing.
func (m *Manager) Dispatch(smp reader.Sample) error {
	return m.DispatchWith(smp, OpenOptions{})
}

// DispatchWith is Dispatch with decode defaults for the implicit
// session create: if smp's EPC has no live session, the new session is
// opened with defaults (instead of the manager's base configuration
// alone). A live session keeps whatever configuration it was created
// with. This is how connect-time client defaults pushed over opHello
// reach sessions that were never explicitly opened.
func (m *Manager) DispatchWith(smp reader.Sample, defaults OpenOptions) error {
	return m.dispatch(context.Background(), smp, defaults)
}

// dispatch is DispatchWith bounded by ctx: an enqueue blocked on a
// full session queue returns ctx.Err() once ctx ends.
func (m *Manager) dispatch(ctx context.Context, smp reader.Sample, defaults OpenOptions) error {
	for {
		s, err := m.sessionFor(smp.EPC, defaults)
		if err != nil {
			return err
		}
		s.lastActive.Store(time.Now().UnixNano())
		depth := float64(len(s.queue))
		s.depth.Observe(depth)
		if m.tel != nil {
			m.tel.queueDepth.Observe(depth)
		}
		switch err := s.enqueue(ctx, smp, m.cfg.DropWhenFull); err {
		case nil:
			s.received.Add(1)
			return nil
		case ErrSessionClosed:
			// Evicted between lookup and enqueue: the session is
			// already out of the map, so the next lookup starts a
			// fresh one.
			continue
		default:
			return err
		}
	}
}

// DispatchBatch routes a batch (e.g. one RO_ACCESS_REPORT) in order.
func (m *Manager) DispatchBatch(batch []reader.Sample) error {
	return m.DispatchBatchWith(batch, OpenOptions{})
}

// DispatchBatchWith is DispatchBatch with implicit-create decode
// defaults (see DispatchWith).
func (m *Manager) DispatchBatchWith(batch []reader.Sample, defaults OpenOptions) error {
	for _, smp := range batch {
		if err := m.DispatchWith(smp, defaults); err != nil {
			return err
		}
	}
	return nil
}

func (m *Manager) sessionFor(epc string, defaults OpenOptions) (*session, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if s, ok := m.sessions[epc]; ok {
		m.mu.Unlock()
		return s, nil
	}
	var evict *session
	if len(m.sessions) >= m.cfg.MaxSessions {
		evict = m.lruLocked()
		delete(m.sessions, evict.epc)
	}
	s := m.startSession(epc, defaults)
	m.sessions[epc] = s
	m.mu.Unlock()

	if evict != nil {
		m.finalizeSession(evict)
	}
	return s, nil
}

// finalizeSession drains and decodes one removed session, publishing
// the outcome to the event stream.
func (m *Manager) finalizeSession(s *session) (*core.Result, error) {
	res, err := s.finalize()
	if m.tel != nil {
		m.tel.evictions.Inc()
	}
	if m.events.HasSubscribers() {
		m.events.Publish(Event{Kind: EventEvict, EPC: s.epc, Result: res, Err: err})
	}
	return res, err
}

// lruLocked returns the least-recently-active session; m.mu held.
func (m *Manager) lruLocked() *session {
	var oldest *session
	for _, s := range m.sessions {
		if oldest == nil || s.lastActive.Load() < oldest.lastActive.Load() {
			oldest = s
		}
	}
	return oldest
}

// startSession builds one pen session; m.mu held. Zero opts share the
// manager's tracker configuration; set fields overlay it via
// core.Tracker.StreamWith (grid-level fields cannot vary per session).
func (m *Manager) startSession(epc string, opts OpenOptions) *session {
	st := m.tracker.Stream()
	if !opts.IsZero() {
		st = m.tracker.StreamWith(opts.Apply(m.cfg.Tracker))
	}
	return m.wireSession(epc, st)
}

// wireSession attaches the event hooks, checkpoint cadence, and worker
// goroutine to a tracker (fresh or restored) and starts the session.
func (m *Manager) wireSession(epc string, st *core.StreamTracker) *session {
	s := &session{
		epc:   epc,
		queue: make(chan reader.Sample, m.cfg.QueueSize),
		done:  make(chan struct{}),
		st:    st,
		tel:   m.tel,
	}
	s.lastActive.Store(time.Now().UnixNano())
	hook := m.windowHook
	// Commit-kind counters publish deltas against the snapshot's
	// baseline so a restored session does not re-count its history.
	// Worker-only state: OnWindow runs on the session goroutine.
	prevDecode := st.DecodeStats()
	s.st.OnWindow = func(w core.Window, live geom.Vec2) {
		// DecodeStats is tracker-owned state: snapshot it here, on the
		// worker goroutine driving the tracker, and mirror it under
		// liveMu for concurrent stats() readers.
		decode := s.st.DecodeStats()
		s.liveMu.Lock()
		s.live, s.hasLive = live, true
		s.windows++
		s.decode = decode
		s.liveMu.Unlock()
		if m.tel != nil {
			m.tel.beamWidth.Observe(float64(decode.ActiveLast))
			if d := decode.MergeCommits - prevDecode.MergeCommits; d > 0 {
				m.tel.commitsMerge.Add(int64(d))
			}
			if d := decode.ForcedCommits - prevDecode.ForcedCommits; d > 0 {
				m.tel.commitsForced.Add(int64(d))
			}
			prevDecode = decode
		}
		if m.events.HasSubscribers() {
			m.events.Publish(Event{Kind: EventWindowClose, EPC: epc, Window: w})
			m.events.Publish(Event{Kind: EventPoint, EPC: epc, Window: w, Live: live})
		}
		if hook != nil {
			hook(epc)
		}
	}
	// Commit segments flow to the event stream and into the session's
	// committed mirror (the replay source for late subscribers).
	// Setting OnCommit also arms the smoother's lossless merge-commit
	// detection for sessions with CommitLag 0 — commits are a prefix of
	// the Finalize trajectory either way, so decoded results are
	// unchanged.
	s.st.OnCommit = func(start int, seg geom.Polyline) {
		s.liveMu.Lock()
		for i, p := range seg {
			if idx := start + i; idx < len(s.committed) {
				s.committed[idx] = p
			} else {
				s.committed = append(s.committed, p)
			}
		}
		s.liveMu.Unlock()
		if m.events.HasSubscribers() {
			// seg is freshly built per commit (core never reuses it),
			// so subscribers may retain it.
			m.events.Publish(Event{Kind: EventCommit, EPC: epc,
				CommitStart: start, Segment: seg})
		}
	}
	if every := m.cfg.CheckpointEvery; every > 0 {
		// Cadence state lives in the closure: worker-only access. A
		// checkpoint that finds no subscriber is deferred, not skipped —
		// the next push retries, so a journal that attaches late still
		// gets a snapshot promptly.
		last := st.Windows()
		s.maybeCheckpoint = func() {
			w := s.st.Windows()
			if w-last < every || !m.events.HasSubscribers() {
				return
			}
			state, err := s.st.Snapshot()
			if err != nil {
				return
			}
			last = w
			m.events.Publish(Event{Kind: EventCheckpoint, EPC: epc,
				Covered: uint64(s.st.Received()), State: state})
		}
	}
	go s.run()
	return s
}

// run drains the queue into the tracker until the queue closes.
func (s *session) run() {
	defer close(s.done)
	for smp := range s.queue {
		// ErrFinalized impossible: finalize waits for done.
		if s.tel == nil {
			_ = s.st.Push(smp)
		} else {
			// Window-close latency: the decode cost of the push that
			// closed the window (the step a consumer's point event
			// waits on). Pushes that only buffer are not observed.
			before := s.st.Windows()
			t0 := time.Now()
			_ = s.st.Push(smp)
			if s.st.Windows() > before {
				s.tel.windowClose.Observe(time.Since(t0).Seconds())
			}
		}
		s.lateDropped.Store(uint64(s.st.Dropped()))
		if s.maybeCheckpoint != nil {
			s.maybeCheckpoint()
		}
	}
}

// enqueue adds a sample under the session's backpressure policy; a
// blocking enqueue gives up with ctx.Err() when ctx ends.
func (s *session) enqueue(ctx context.Context, smp reader.Sample, drop bool) error {
	s.sendMu.RLock()
	defer s.sendMu.RUnlock()
	if s.closed {
		return ErrSessionClosed
	}
	if drop {
		select {
		case s.queue <- smp:
		default:
			s.queueDropped.Add(1)
		}
		return nil
	}
	select {
	case s.queue <- smp:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// stop closes the queue and waits for the worker to drain it.
func (s *session) stop() {
	s.sendMu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.sendMu.Unlock()
	<-s.done
}

// finalize stops the worker and decodes the full trajectory.
func (s *session) finalize() (*core.Result, error) {
	s.stop()
	return s.st.Finalize()
}

func (s *session) stats() Stats {
	s.liveMu.Lock()
	live, hasLive, windows, decode := s.live, s.hasLive, s.windows, s.decode
	s.liveMu.Unlock()
	return Stats{
		EPC:            s.epc,
		Received:       s.received.Load(),
		QueueDropped:   s.queueDropped.Load(),
		LateDropped:    s.lateDropped.Load(),
		Windows:        windows,
		QueueMeanDepth: s.depth.Mean(),
		QueueMaxDepth:  int(s.depth.Max()),
		Live:           live,
		HasLive:        hasLive,
		Decode:         decode,
		LastActive:     time.Unix(0, s.lastActive.Load()),
	}
}

// Stats snapshots every live session, sorted by EPC.
func (m *Manager) Stats() []Stats {
	m.mu.Lock()
	ss := make([]*session, 0, len(m.sessions))
	for _, s := range m.sessions {
		ss = append(ss, s)
	}
	m.mu.Unlock()
	out := make([]Stats, len(ss))
	for i, s := range ss {
		out[i] = s.stats()
	}
	sortStats(out)
	return out
}

// sortStats orders snapshots by EPC.
func sortStats(out []Stats) {
	sort.Slice(out, func(i, j int) bool { return out[i].EPC < out[j].EPC })
}

// isClosed reports whether Close has begun.
func (m *Manager) isClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Len returns the number of live sessions.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// Finalize evicts one session and returns its decoded trajectory
// (ErrUnknownEPC if none is live, ErrClosed after Close).
func (m *Manager) Finalize(epc string) (*core.Result, error) {
	m.mu.Lock()
	closed := m.closed
	s, ok := m.sessions[epc]
	if ok {
		delete(m.sessions, epc)
	}
	m.mu.Unlock()
	if !ok {
		if closed {
			return nil, ErrClosed
		}
		return nil, ErrUnknownEPC
	}
	return m.finalizeSession(s)
}

// EvictIdle finalizes every session idle for at least maxIdle and
// returns how many were evicted.
func (m *Manager) EvictIdle(maxIdle time.Duration) int {
	cutoff := time.Now().Add(-maxIdle).UnixNano()
	m.mu.Lock()
	var idle []*session
	for epc, s := range m.sessions {
		if s.lastActive.Load() <= cutoff {
			idle = append(idle, s)
			delete(m.sessions, epc)
		}
	}
	m.mu.Unlock()
	for _, s := range idle {
		m.finalizeSession(s)
	}
	return len(idle)
}

// Close rejects further calls, drains and finalizes every session
// concurrently, and returns the results keyed by EPC (sessions whose
// streams were too short are omitted; they still publish their
// EventEvict with the error). It then ends every event subscription
// (after the final Evict events are delivered), so a consumer ranging
// over Subscribe's channel terminates without needing its own cancel.
// Close is idempotent; later calls return nil.
func (m *Manager) Close() map[string]*core.Result {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	ss := make([]*session, 0, len(m.sessions))
	for epc, s := range m.sessions {
		ss = append(ss, s)
		delete(m.sessions, epc)
	}
	m.mu.Unlock()

	out := make(map[string]*core.Result, len(ss))
	var wg sync.WaitGroup
	var outMu sync.Mutex
	for _, s := range ss {
		wg.Add(1)
		go func(s *session) {
			defer wg.Done()
			res, err := m.finalizeSession(s)
			if err == nil {
				outMu.Lock()
				out[s.epc] = res
				outMu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	m.events.CloseAll()
	return out
}
