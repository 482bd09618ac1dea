package session

import (
	"context"
	"sync"
	"sync/atomic"

	"polardraw/internal/core"
	"polardraw/internal/geom"
)

// EventKind discriminates the unified event stream's payloads.
type EventKind uint8

const (
	// EventWindowClose: a valid preprocessing window closed on a
	// session (the Window field is set). Fired once per closed window,
	// immediately before the paired EventPoint.
	EventWindowClose EventKind = iota + 1
	// EventPoint: the session decoder's live position estimate advanced
	// (Window and Live are set).
	EventPoint
	// EventCommit: the fixed-lag Viterbi smoother committed a
	// trajectory segment (CommitStart and Segment are set; see
	// core.StreamTracker.OnCommit for the prefix contract).
	EventCommit
	// EventEvict: a session was finalized — explicitly, by idle sweep,
	// by LRU pressure, or at Close (Result or Err is set).
	EventEvict
	// EventBackendHealth: a routed backend crossed the healthy/
	// unhealthy boundary (Backend and Healthy are set). Emitted only by
	// Router-backed subscriptions.
	EventBackendHealth
	// EventCheckpoint: a session emitted a periodic durability
	// checkpoint (Covered and State are set; see Config.CheckpointEvery
	// and core.StreamTracker.Snapshot). Routers with a journal attached
	// absorb these into the WAL instead of forwarding them downstream.
	EventCheckpoint
	// EventMembership: a new cluster membership epoch was applied
	// (Epoch and Members are set). Emitted by Router.ApplyMembership
	// and pushed by shard servers to their subscribers; routers
	// apply upstream pushes instead of forwarding them verbatim, so a
	// subscriber sees exactly one event per epoch its router applied.
	EventMembership
)

// String names the kind for logs and error messages.
func (k EventKind) String() string {
	switch k {
	case EventWindowClose:
		return "WindowClose"
	case EventPoint:
		return "Point"
	case EventCommit:
		return "Commit"
	case EventEvict:
		return "Evict"
	case EventBackendHealth:
		return "BackendHealth"
	case EventCheckpoint:
		return "Checkpoint"
	case EventMembership:
		return "Membership"
	default:
		return "Unknown"
	}
}

// Event is one entry of the unified serving event stream: every
// consumer-visible occurrence — window closes, live points, smoother
// commits, evictions, backend health transitions — delivered through
// one Subscribe channel with identical semantics whether the backend
// is in-process, a shardrpc client, or a router over either. Only the
// fields its Kind documents are meaningful; the rest are zero.
type Event struct {
	Kind EventKind
	// EPC identifies the session (empty for EventBackendHealth).
	EPC string

	// Window is the closed preprocessing window (WindowClose, Point).
	Window core.Window
	// Live is the decoder's position estimate (Point).
	Live geom.Vec2

	// CommitStart is the window index of Segment's first point
	// (Commit); Segment holds the committed path points.
	CommitStart int
	Segment     geom.Polyline

	// Result and Err carry the finalization outcome (Evict): exactly
	// one is non-nil, except that a too-short stream yields Err ==
	// core.ErrTooFewSamples and no Result.
	Result *core.Result
	Err    error

	// Backend and Healthy describe a health transition
	// (BackendHealth).
	Backend string
	Healthy bool

	// Covered and State carry a durability checkpoint (Checkpoint):
	// State is the core.StreamTracker snapshot, Covered the number of
	// dispatched samples it accounts for — the WAL replay point.
	Covered uint64
	State   []byte

	// Epoch and Members carry an applied cluster routing table
	// (Membership).
	Epoch   uint64
	Members []Member
}

// CancelFunc releases a subscription. It is idempotent and safe to
// call concurrently with event delivery; after it returns no further
// events are sent and the subscription channel is closed.
type CancelFunc func()

// SubscribeOptions narrows a subscription to the events a consumer
// actually wants — the fan-out control for deployments where a point
// firehose would swamp subscribers that only need commits. The zero
// value subscribes to everything.
//
// Both filters are allow-lists: empty means "all". Events that carry
// no EPC (BackendHealth, Membership) pass the EPC filter, since they
// describe the cluster rather than any one pen. Filters are applied at
// the publishing hub — a filtered-out event is never enqueued, so it
// neither occupies buffer space nor counts against the subscriber's
// drop budget — and shardrpc carries them over the wire, so remote
// filtering happens server-side before any frame is written.
type SubscribeOptions struct {
	// Kinds restricts delivery to these event kinds (empty = all).
	Kinds []EventKind
	// EPCs restricts delivery to sessions with these EPCs (empty =
	// all). Cluster-scoped events with no EPC always pass.
	EPCs []string
}

// IsZero reports whether the options request an unfiltered stream.
func (o SubscribeOptions) IsZero() bool {
	return len(o.Kinds) == 0 && len(o.EPCs) == 0
}

// eventFilter is the compiled form of SubscribeOptions: a kind bitmask
// and an EPC set, both O(1) per event.
type eventFilter struct {
	kinds uint64 // bit k set = EventKind k wanted; 0 = all
	epcs  map[string]bool
}

func compileFilter(o SubscribeOptions) *eventFilter {
	if o.IsZero() {
		return nil
	}
	f := &eventFilter{}
	for _, k := range o.Kinds {
		if k < 64 {
			f.kinds |= 1 << k
		}
	}
	if len(o.EPCs) > 0 {
		f.epcs = make(map[string]bool, len(o.EPCs))
		for _, epc := range o.EPCs {
			f.epcs[epc] = true
		}
	}
	return f
}

// match reports whether ev passes the filter (nil passes everything).
func (f *eventFilter) match(ev Event) bool {
	if f == nil {
		return true
	}
	if f.kinds != 0 && (ev.Kind >= 64 || f.kinds&(1<<ev.Kind) == 0) {
		return false
	}
	if f.epcs != nil && ev.EPC != "" && !f.epcs[ev.EPC] {
		return false
	}
	return true
}

// DefaultEventBuffer is the per-subscriber channel capacity when the
// subscribing backend does not configure one.
const DefaultEventBuffer = 256

// EventHub fans events out to any number of subscribers. Delivery is
// non-blocking: a subscriber that lets its buffer fill loses events
// (counted in dropped) rather than stalling the decode workers that
// publish. Publishing with no subscribers is a cheap atomic load.
type EventHub struct {
	subs    atomic.Int32
	dropped atomic.Uint64

	mu     sync.Mutex
	next   int
	m      map[int]*eventSub
	closed bool // set by CloseAll: the hub is terminal
}

type eventSub struct {
	id     int
	ch     chan Event
	filter *eventFilter // nil = unfiltered
	once   sync.Once
	// onRemove, if set, releases the ctx-watcher goroutine so a
	// cancelled subscription does not leak it for the context's
	// lifetime.
	onRemove func()
}

// subscribe registers a subscriber with the given buffer capacity
// (<= 0 takes DefaultEventBuffer). The subscription ends when cancel
// is called or ctx is done, whichever comes first; either way the
// channel is closed after the last delivery.
func (h *EventHub) Subscribe(ctx context.Context, buffer int) (<-chan Event, CancelFunc) {
	return h.SubscribeFiltered(ctx, buffer, SubscribeOptions{})
}

// SubscribeFiltered is Subscribe narrowed by opts: only matching
// events are enqueued (see SubscribeOptions for the match rules).
func (h *EventHub) SubscribeFiltered(ctx context.Context, buffer int, opts SubscribeOptions) (<-chan Event, CancelFunc) {
	if buffer <= 0 {
		buffer = DefaultEventBuffer
	}
	s := &eventSub{ch: make(chan Event, buffer), filter: compileFilter(opts)}
	// onRemove must be in place before the sub is published to the map:
	// a concurrent closeAll may remove it immediately.
	var stop chan struct{}
	if ctx != nil && ctx.Done() != nil {
		stop = make(chan struct{})
		s.onRemove = func() { close(stop) }
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		close(s.ch)
		return s.ch, func() {}
	}
	if h.m == nil {
		h.m = make(map[int]*eventSub)
	}
	s.id = h.next
	h.next++
	h.m[s.id] = s
	h.mu.Unlock()
	h.subs.Add(1)

	cancel := func() { h.remove(s) }
	if stop != nil {
		go func() {
			select {
			case <-ctx.Done():
				cancel()
			case <-stop:
			}
		}()
	}
	return s.ch, cancel
}

// remove detaches one subscriber and closes its channel. Publish sends
// while holding h.mu, so deleting and closing under the same critical
// section cannot race a send.
func (h *EventHub) remove(s *eventSub) {
	s.once.Do(func() {
		h.mu.Lock()
		delete(h.m, s.id)
		close(s.ch)
		h.mu.Unlock()
		h.subs.Add(-1)
		if s.onRemove != nil {
			s.onRemove()
		}
	})
}

// CloseAll detaches every subscriber, so consumers' range loops end,
// and makes the hub terminal: a later subscription gets an
// already-closed channel. Terminal Close paths call it.
func (h *EventHub) CloseAll() {
	h.mu.Lock()
	h.closed = true
	subs := make([]*eventSub, 0, len(h.m))
	for _, s := range h.m {
		subs = append(subs, s)
	}
	h.mu.Unlock()
	for _, s := range subs {
		h.remove(s)
	}
}

// hasSubscribers reports whether publish would reach anyone — the
// cheap guard event producers use to skip payload construction.
func (h *EventHub) HasSubscribers() bool { return h.subs.Load() > 0 }

// publish delivers ev to every current subscriber, dropping (and
// counting) at full buffers.
func (h *EventHub) Publish(ev Event) {
	if h.subs.Load() == 0 {
		return
	}
	h.mu.Lock()
	for _, s := range h.m {
		if !s.filter.match(ev) {
			continue
		}
		select {
		case s.ch <- ev:
		default:
			h.dropped.Add(1)
		}
	}
	h.mu.Unlock()
}

// Dropped counts events shed at full subscriber buffers.
func (h *EventHub) Dropped() uint64 { return h.dropped.Load() }
