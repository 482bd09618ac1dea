package session

import (
	"context"
	"time"

	"polardraw/internal/core"
	"polardraw/internal/reader"
)

// ShardBackend is the transport-agnostic contract of one session-tier
// shard: something that accepts a mixed multi-pen sample stream,
// demultiplexes it into per-EPC tracking sessions, and can report or
// finalize them. Three implementations exist:
//
//   - LocalBackend: an in-process Manager, called on the caller's
//     goroutine; each session's own queue and worker take the decode.
//     A single-process deployment is a Router over N of them sharing
//     one core.Tracker.
//   - shardrpc.Client: the same contract spoken over a TCP connection
//     to a shard server process (shardrpc.Server), for multi-process
//     and multi-host deployments.
//   - Router: a rendezvous-hash fan-out over any mix of the above,
//     itself a ShardBackend so topologies compose.
//
// Every method takes a context.Context and honours its deadline and
// cancellation: an operation that would block — a Dispatch against a
// full session queue, any call against a dead remote — returns
// ctx.Err() promptly instead of hanging. Cancelling a call does not
// corrupt the backend; at worst the operation completes in the
// background (its outcome still reaches the event stream). Errors are
// drawn from the package taxonomy (ErrClosed, ErrUnknownEPC,
// ErrSessionLimit, ErrBackendUnavailable, core.ErrTooFewSamples) plus
// context errors, and remote backends round-trip the sentinels over
// the wire, so errors.Is behaves identically across transports.
//
// One ordering contract holds on every transport: per-EPC dispatch
// order is preserved, and Open, Finalize, Export, Restore, EvictIdle
// and Close are ordered after every Dispatch of the EPCs they touch
// that returned before them. So a DispatchBatch followed at once by
// Finalize decodes the whole batch, with no session left behind.
// Methods may be called concurrently.
//
// One closed-state contract holds on every transport too: after Close
// returns, every method fails with an error satisfying
// errors.Is(err, ErrClosed) and a Router marks no backend unhealthy
// for it; Subscribe and SubscribeFiltered return an already-closed
// channel; and a second Close returns (nil, nil).
type ShardBackend interface {
	// Open eagerly creates the EPC's session with per-session decode
	// options (see Manager.Open for the exact semantics: no silent
	// eviction, ErrSessionLimit at the cap, no-op for a live EPC).
	Open(ctx context.Context, epc string, opts OpenOptions) error
	// Dispatch routes one sample to its EPC's session.
	Dispatch(ctx context.Context, smp reader.Sample) error
	// DispatchBatch routes a batch (e.g. one RO_ACCESS_REPORT) in order.
	DispatchBatch(ctx context.Context, batch []reader.Sample) error
	// Finalize evicts one session and returns its decoded trajectory.
	Finalize(ctx context.Context, epc string) (*core.Result, error)
	// Stats snapshots every live session, sorted by EPC.
	Stats(ctx context.Context) ([]Stats, error)
	// Len counts the live sessions: Stats' length, without snapshots.
	Len(ctx context.Context) (int, error)
	// EvictIdle finalizes sessions idle for at least maxIdle.
	EvictIdle(ctx context.Context, maxIdle time.Duration) (int, error)
	// Subscribe attaches a consumer to the backend's unified event
	// stream (see Event). Delivery is identical whichever transport
	// backs the stream; a slow consumer loses events rather than
	// stalling decode. Cancel (or ctx expiry) detaches and closes the
	// channel; the backend's Close also ends every subscription, so a
	// plain range over the channel terminates. In-process backends
	// deliver the close-time Evict events before the channel closes;
	// on a remote backend events racing the connection teardown may be
	// cut short.
	Subscribe(ctx context.Context) (<-chan Event, CancelFunc)
	// SubscribeFiltered is Subscribe narrowed by a kind/EPC allow-list
	// (see SubscribeOptions). The filter is enforced at the event
	// source — before buffering locally, before framing on a remote
	// transport — so a narrow subscription costs proportionally to what
	// it receives, not to the cluster's full event rate.
	SubscribeFiltered(ctx context.Context, opts SubscribeOptions) (<-chan Event, CancelFunc)
	// Export removes the EPC's live session and returns its serialized
	// mid-stroke state (a core.StreamTracker snapshot) for Restore on
	// another backend — the graceful half of a handoff. The snapshot
	// covers every sample dispatched to this backend for the EPC before
	// the call. ErrUnknownEPC when no session is live.
	Export(ctx context.Context, epc string) ([]byte, error)
	// Restore rebuilds the EPC's session from a snapshot produced by
	// Export or by a checkpoint event, replacing any live session for
	// the EPC. Samples dispatched after Restore continue the stroke
	// exactly where the snapshot left off.
	Restore(ctx context.Context, epc string, state []byte) error
	// Close stops ingress, drains, finalizes every session, and returns
	// the decoded results keyed by EPC. Close is terminal and
	// idempotent (see the closed-state contract above).
	Close(ctx context.Context) (map[string]*core.Result, error)
}

// await runs fn off the calling goroutine and waits for it or for ctx,
// whichever finishes first — the bridge between the manager's blocking
// drain operations and the contract's prompt-cancellation guarantee.
// When ctx wins, fn keeps running to completion in the background (its
// effects, e.g. finalized sessions, still reach the event stream).
func await[T any](ctx context.Context, fn func() (T, error)) (T, error) {
	var zero T
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	type out struct {
		v   T
		err error
	}
	done := make(chan out, 1)
	go func() {
		v, err := fn()
		done <- out{v, err}
	}()
	select {
	case o := <-done:
		return o.v, o.err
	case <-ctx.Done():
		return zero, ctx.Err()
	}
}

// LocalBackend is the in-process ShardBackend: a Manager called on
// the caller's goroutine. Decode stays off that goroutine — each
// session's own bounded queue and worker take it — and the Manager
// stops and drains a session's queue before finalizing, exporting or
// replacing it, so every call is ordered after the EPC's earlier
// dispatches exactly as on a remote backend.
type LocalBackend struct {
	m *Manager
}

// NewLocalBackend builds an in-process backend whose sessions decode
// on tr. Backends built on one tracker share its precomputed HMM grid
// and stencil cache, which is how a single-process deployment runs N
// shards for the cost of one grid; a nil tr builds a private one from
// cfg.Tracker. Zero cfg fields take defaults.
func NewLocalBackend(cfg Config, tr *core.Tracker) *LocalBackend {
	if tr == nil {
		tr = core.New(cfg.Tracker)
	}
	return &LocalBackend{m: newManagerWith(cfg, tr)}
}

// live fails a call that must not start: its ctx already ended, or
// the backend is closed.
func (lb *LocalBackend) live(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if lb.m.isClosed() {
		return ErrClosed
	}
	return nil
}

// Open eagerly creates the EPC's session with per-session options.
func (lb *LocalBackend) Open(ctx context.Context, epc string, opts OpenOptions) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return lb.m.Open(epc, opts)
}

// Dispatch enqueues one sample on its session's queue. With
// DropWhenFull unset it blocks while that queue is full, returning
// ctx.Err() if the context ends first.
func (lb *LocalBackend) Dispatch(ctx context.Context, smp reader.Sample) error {
	return lb.m.dispatch(ctx, smp, OpenOptions{})
}

// DispatchBatch enqueues a batch in order.
func (lb *LocalBackend) DispatchBatch(ctx context.Context, batch []reader.Sample) error {
	for _, smp := range batch {
		if err := lb.m.dispatch(ctx, smp, OpenOptions{}); err != nil {
			return err
		}
	}
	return nil
}

// Finalize evicts one session and returns its decoded trajectory,
// covering every sample dispatched for the EPC before the call. If ctx
// ends while the session drains, Finalize returns ctx.Err() and the
// finalization completes in the background (the result still reaches
// the event stream).
func (lb *LocalBackend) Finalize(ctx context.Context, epc string) (*core.Result, error) {
	return await(ctx, func() (*core.Result, error) { return lb.m.Finalize(epc) })
}

// Stats snapshots every live session, sorted by EPC.
func (lb *LocalBackend) Stats(ctx context.Context) ([]Stats, error) {
	if err := lb.live(ctx); err != nil {
		return nil, err
	}
	return lb.m.Stats(), nil
}

// Len returns the number of live sessions.
func (lb *LocalBackend) Len(ctx context.Context) (int, error) {
	if err := lb.live(ctx); err != nil {
		return 0, err
	}
	return lb.m.Len(), nil
}

// EvictIdle finalizes every session idle for at least maxIdle. On ctx
// expiry the sweep continues in the background and ctx.Err() is
// returned.
func (lb *LocalBackend) EvictIdle(ctx context.Context, maxIdle time.Duration) (int, error) {
	if err := lb.live(ctx); err != nil {
		return 0, err
	}
	return await(ctx, func() (int, error) { return lb.m.EvictIdle(maxIdle), nil })
}

// Subscribe attaches a consumer to the manager's unified event stream.
func (lb *LocalBackend) Subscribe(ctx context.Context) (<-chan Event, CancelFunc) {
	return lb.m.Subscribe(ctx)
}

// SubscribeFiltered is Subscribe narrowed by opts (see
// SubscribeOptions).
func (lb *LocalBackend) SubscribeFiltered(ctx context.Context, opts SubscribeOptions) (<-chan Event, CancelFunc) {
	return lb.m.SubscribeFiltered(ctx, opts)
}

// Export removes the EPC's session and returns its serialized state,
// covering every sample dispatched for the EPC before the call.
func (lb *LocalBackend) Export(ctx context.Context, epc string) ([]byte, error) {
	return await(ctx, func() ([]byte, error) { return lb.m.Export(epc) })
}

// Restore rebuilds the EPC's session from a snapshot, replacing any
// live one; samples dispatched before the call land in the replaced
// session, never in the restored one.
func (lb *LocalBackend) Restore(ctx context.Context, epc string, state []byte) error {
	if err := lb.live(ctx); err != nil {
		return err // before decoding state: ErrClosed beats a bad snapshot
	}
	_, err := await(ctx, func() (struct{}, error) { return struct{}{}, lb.m.Restore(epc, state) })
	return err
}

// Close rejects further calls, finalizes all sessions, and returns the
// decoded results keyed by EPC. Close is idempotent; later calls
// return (nil, nil). On ctx expiry the finalize keeps running in the
// background and ctx.Err() is returned.
func (lb *LocalBackend) Close(ctx context.Context) (map[string]*core.Result, error) {
	// Close commits regardless of ctx state (await's early exit would
	// skip it).
	done := make(chan map[string]*core.Result, 1)
	go func() { done <- lb.m.Close() }()
	select {
	case res := <-done:
		return res, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Compile-time contract checks: every backend implements the
// context-aware ShardBackend.
var (
	_ ShardBackend = (*LocalBackend)(nil)
	_ ShardBackend = (*Router)(nil)
)
