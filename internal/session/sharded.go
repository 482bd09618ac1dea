package session

import (
	"context"
	"fmt"
	"sync"
	"time"

	"polardraw/internal/core"
	"polardraw/internal/reader"
)

// DefaultShards is the ShardedConfig.Shards default.
const DefaultShards = 4

// ShardedConfig parameterizes a ShardedManager.
type ShardedConfig struct {
	// Session configures every shard's Manager. MaxSessions applies
	// per shard.
	Session Config
	// Shards is the number of independent local backends EPCs are
	// routed across (default 4). Each shard has its own Manager and
	// session cap; decode parallelism comes from the per-pen session
	// workers, not from the shard count.
	Shards int
}

// ShardedManager is the single-process deployment of the shard
// architecture: a thin facade over a Router spread across N
// LocalBackends that share one core.Tracker, so the expensive HMM grid
// is still built exactly once. It is the degenerate case of the same
// router that fronts multi-process shardrpc backends — routing,
// ordering, and metrics behave identically; only the transport
// differs. Per-EPC sample order is preserved end to end: the router
// sends an EPC to exactly one backend, which enqueues on the caller's
// goroutine into the session's own queue.
type ShardedManager struct {
	cfg     ShardedConfig
	tracker *core.Tracker
	locals  []*LocalBackend
	router  *Router

	// mu guards closed: Dispatch holds the read lock across the route,
	// Close takes the write lock before closing the backends.
	mu     sync.RWMutex
	closed bool
}

// NewShardedManager builds the sharded tier; zero fields take
// defaults.
func NewShardedManager(cfg ShardedConfig) *ShardedManager {
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	sm := &ShardedManager{cfg: cfg, tracker: core.New(cfg.Session.Tracker)}
	nbs := make([]NamedBackend, 0, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		lb := newLocalBackendWith(cfg.Session, sm.tracker)
		sm.locals = append(sm.locals, lb)
		nbs = append(nbs, NamedBackend{Name: fmt.Sprintf("shard-%d", i), Backend: lb})
	}
	sm.router = NewRouter(nbs)
	sm.router.SetEventBuffer(cfg.Session.EventBuffer)
	// Membership joins in the single-process deployment spin up fresh
	// in-process shards on the same shared tracker (no transport to
	// dial).
	sm.router.SetDialer(func(name, _ string) (ShardBackend, error) {
		lb := newLocalBackendWith(cfg.Session, sm.tracker)
		sm.mu.Lock()
		sm.locals = append(sm.locals, lb)
		sm.mu.Unlock()
		return lb, nil
	})
	return sm
}

// Tracker exposes the shared batch tracker (same grid all shards use).
func (sm *ShardedManager) Tracker() *core.Tracker { return sm.tracker }

// Shards returns the shard count (including shards joined — but not
// ones left — through membership changes).
func (sm *ShardedManager) Shards() int {
	sm.mu.RLock()
	defer sm.mu.RUnlock()
	return len(sm.locals)
}

// Router exposes the EPC router, e.g. to inspect per-shard health or
// the EPC→shard mapping.
func (sm *ShardedManager) Router() *Router { return sm.router }

// Open eagerly creates the EPC's session on its rendezvous shard with
// per-session decode options (see Manager.Open for the semantics).
func (sm *ShardedManager) Open(ctx context.Context, epc string, opts OpenOptions) error {
	sm.mu.RLock()
	defer sm.mu.RUnlock()
	if sm.closed {
		return ErrClosed
	}
	return sm.router.Open(ctx, epc, opts)
}

// Dispatch routes one sample to its EPC's shard. With DropWhenFull
// unset it blocks while the session's queue is full, returning
// ctx.Err() if the context ends first.
func (sm *ShardedManager) Dispatch(ctx context.Context, smp reader.Sample) error {
	sm.mu.RLock()
	defer sm.mu.RUnlock()
	if sm.closed {
		return ErrClosed
	}
	return sm.router.Dispatch(ctx, smp)
}

// DispatchBatch routes a batch (e.g. one RO_ACCESS_REPORT) in order.
func (sm *ShardedManager) DispatchBatch(ctx context.Context, batch []reader.Sample) error {
	sm.mu.RLock()
	defer sm.mu.RUnlock()
	if sm.closed {
		return ErrClosed
	}
	return sm.router.DispatchBatch(ctx, batch)
}

// Len returns the number of live sessions across all shards.
func (sm *ShardedManager) Len() int {
	sm.mu.RLock()
	defer sm.mu.RUnlock()
	n := 0
	for _, lb := range sm.locals {
		n += lb.Len()
	}
	return n
}

// Stats snapshots every live session across shards, sorted by EPC.
func (sm *ShardedManager) Stats(ctx context.Context) ([]Stats, error) {
	return sm.router.Stats(ctx)
}

// Finalize evicts one session and returns its decoded trajectory,
// covering every sample dispatched for the EPC before the call.
func (sm *ShardedManager) Finalize(ctx context.Context, epc string) (*core.Result, error) {
	return sm.router.Finalize(ctx, epc)
}

// EvictIdle finalizes every session idle for at least maxIdle and
// returns how many were evicted.
func (sm *ShardedManager) EvictIdle(ctx context.Context, maxIdle time.Duration) (int, error) {
	return sm.router.EvictIdle(ctx, maxIdle)
}

// Subscribe attaches a consumer to the merged event stream of every
// shard (see Router.Subscribe).
func (sm *ShardedManager) Subscribe(ctx context.Context) (<-chan Event, CancelFunc) {
	return sm.router.Subscribe(ctx)
}

// SubscribeFiltered is Subscribe narrowed by opts (see
// SubscribeOptions for the match rules).
func (sm *ShardedManager) SubscribeFiltered(ctx context.Context, opts SubscribeOptions) (<-chan Event, CancelFunc) {
	return sm.router.SubscribeFiltered(ctx, opts)
}

// Export removes the EPC's session from its shard and returns its
// serialized mid-stroke state (see Router.Export).
func (sm *ShardedManager) Export(ctx context.Context, epc string) ([]byte, error) {
	return sm.router.Export(ctx, epc)
}

// Restore rebuilds the EPC's session on its shard from an exported
// snapshot (see Router.Restore).
func (sm *ShardedManager) Restore(ctx context.Context, epc string, state []byte) error {
	return sm.router.Restore(ctx, epc, state)
}

// Close stops ingress, drains every session queue, finalizes all
// sessions concurrently, and returns the decoded results keyed by
// EPC (sessions whose streams were too short are omitted; they still
// reach the event stream with their error). Further
// dispatches fail with ErrClosed. Close is idempotent; later calls
// return nil.
func (sm *ShardedManager) Close(ctx context.Context) (map[string]*core.Result, error) {
	sm.mu.Lock()
	if sm.closed {
		sm.mu.Unlock()
		return nil, nil
	}
	sm.closed = true
	sm.mu.Unlock()
	return sm.router.Close(ctx)
}
