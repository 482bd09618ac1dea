// Package chaos is a deterministic fault-injection harness for the
// shard cluster. An Injector holds a seeded script of fault rules;
// wrapping a ShardBackend (Wrap) or a net.Conn (WrapConn / Dialer)
// applies those rules to the operations flowing through, so a test
// can make the Nth export fail, every third dispatch stall, or one
// direction of a connection silently drop writes — and, because the
// schedule is driven by counters and an rng.Source rather than wall
// clock or math/rand, replaying the same seed against the same
// workload reproduces the exact same fault sequence.
//
// Rules with Every/After/Count fire on deterministic operation
// counts, which is what the scenario suites use. Rules with Prob draw
// from the seeded source and are deterministic too, as long as the
// operation order itself is deterministic (single-goroutine drivers).
package chaos

import (
	"context"
	"net"
	"sync"
	"time"

	"polardraw/internal/core"
	"polardraw/internal/reader"
	"polardraw/internal/rng"
	"polardraw/internal/session"
)

// Op classifies the operations a Rule can target.
type Op string

// Backend operation classes (Wrap) and connection classes (WrapConn).
const (
	OpAny      Op = "*"        // every class
	OpOpen     Op = "open"     // ShardBackend.Open
	OpDispatch Op = "dispatch" // Dispatch and each DispatchBatch call
	OpFinalize Op = "finalize" // Finalize
	OpStats    Op = "stats"    // Stats
	OpExport   Op = "export"   // Export
	OpRestore  Op = "restore"  // Restore
	OpPing     Op = "ping"     // the heartbeat probe
	OpRead     Op = "read"     // net.Conn.Read
	OpWrite    Op = "write"    // net.Conn.Write
)

// Fault is what happens when a rule fires. Zero fields are inert, so
// a pure-latency fault sets only Latency and an error fault only Err.
type Fault struct {
	// Latency delays the operation before it proceeds normally.
	Latency time.Duration
	// Stall blocks the operation (honoring ctx on backend ops) and
	// then continues with the rest of the fault — a Stall with no Err
	// is a slow success; with Err it is a slow failure.
	Stall time.Duration
	// Err aborts the operation with this error instead of performing
	// it. On conns the error is returned from Read/Write, which the
	// shardrpc client treats as a broken connection.
	Err error
	// Drop (conn writes only) swallows the write while reporting
	// success: the one-way partition, where the peer simply never
	// hears us but we keep listening.
	Drop bool
	// Truncate (conn writes only) writes just the first Truncate bytes
	// and then fails the call, leaving a torn frame on the wire.
	Truncate int
	// Kill (conn ops only) closes the underlying connection before
	// failing the call, so the peer sees the drop too.
	Kill bool
}

// Rule matches a class of operations and fires its Fault on a subset
// of them. Matching operations are counted per rule; the rule fires
// when the count passes After and then every Every-th match (Every 0
// or 1 means every match past After), or — if Every is 0 and Prob is
// set — on a seeded coin flip. Count bounds the total firings
// (0 = unlimited).
type Rule struct {
	Op    Op
	After int     // skip the first After matching operations
	Every int     // then fire every Every-th match (0/1 = each one)
	Count int     // fire at most Count times, 0 = unlimited
	Prob  float64 // used instead of Every when Every == 0 and Prob > 0
	Fault Fault
}

// Injector evaluates a fault script. One Injector may feed any number
// of wrapped backends and conns; its counters are shared, which is
// exactly what a "fail the 3rd export cluster-wide" scenario wants.
// Use separate Injectors for independent scripts.
type Injector struct {
	mu    sync.Mutex
	src   *rng.Source
	rules []ruleState
}

type ruleState struct {
	Rule
	seen  int
	fired int
}

// New builds an Injector with the given seed and script. Rules are
// evaluated in order; the first one that fires supplies the fault.
func New(seed uint64, rules ...Rule) *Injector {
	in := &Injector{src: rng.New(seed)}
	in.rules = make([]ruleState, len(rules))
	for i, r := range rules {
		in.rules[i] = ruleState{Rule: r}
	}
	return in
}

// Fired reports how many times any rule has fired, a convenience for
// asserting a scenario actually exercised its faults.
func (in *Injector) Fired() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for i := range in.rules {
		n += in.rules[i].fired
	}
	return n
}

// check advances the counters for one operation and returns the fault
// to apply, if any.
func (in *Injector) check(op Op) (Fault, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i := range in.rules {
		r := &in.rules[i]
		if r.Op != OpAny && r.Op != op {
			continue
		}
		r.seen++
		if r.seen <= r.After {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		fire := false
		switch {
		case r.Every > 1:
			fire = (r.seen-r.After)%r.Every == 0
		case r.Every == 1 || r.Prob <= 0:
			fire = true
		default:
			fire = in.src.Float64() < r.Prob
		}
		if fire {
			r.fired++
			return r.Fault, true
		}
	}
	return Fault{}, false
}

// inject applies the backend-side of a fault: latency, stall, error.
// ctx cancellation cuts a stall short with ctx.Err().
func (in *Injector) inject(ctx context.Context, op Op) error {
	f, ok := in.check(op)
	if !ok {
		return nil
	}
	for _, d := range [2]time.Duration{f.Latency, f.Stall} {
		if d <= 0 {
			continue
		}
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	return f.Err
}

// Backend wraps a ShardBackend with fault injection on the calls a
// router makes on the hot and handoff paths. Pass-through calls
// (Subscribe, EvictIdle, Close) are never faulted: the scenarios
// target data-plane and migration traffic, and a faulted Close would
// only leak the inner backend.
type Backend struct {
	inner session.ShardBackend
	in    *Injector
}

// Wrap builds a fault-injecting view of b driven by in.
func Wrap(b session.ShardBackend, in *Injector) *Backend {
	return &Backend{inner: b, in: in}
}

// Inner returns the wrapped backend.
func (cb *Backend) Inner() session.ShardBackend { return cb.inner }

// Open implements ShardBackend.
func (cb *Backend) Open(ctx context.Context, epc string, opts session.OpenOptions) error {
	if err := cb.in.inject(ctx, OpOpen); err != nil {
		return err
	}
	return cb.inner.Open(ctx, epc, opts)
}

// Dispatch implements ShardBackend.
func (cb *Backend) Dispatch(ctx context.Context, smp reader.Sample) error {
	if err := cb.in.inject(ctx, OpDispatch); err != nil {
		return err
	}
	return cb.inner.Dispatch(ctx, smp)
}

// DispatchBatch implements ShardBackend. The whole batch counts as
// one operation, mirroring how a wire frame fails as a unit.
func (cb *Backend) DispatchBatch(ctx context.Context, batch []reader.Sample) error {
	if err := cb.in.inject(ctx, OpDispatch); err != nil {
		return err
	}
	return cb.inner.DispatchBatch(ctx, batch)
}

// Finalize implements ShardBackend.
func (cb *Backend) Finalize(ctx context.Context, epc string) (*core.Result, error) {
	if err := cb.in.inject(ctx, OpFinalize); err != nil {
		return nil, err
	}
	return cb.inner.Finalize(ctx, epc)
}

// Stats implements ShardBackend.
func (cb *Backend) Stats(ctx context.Context) ([]session.Stats, error) {
	if err := cb.in.inject(ctx, OpStats); err != nil {
		return nil, err
	}
	return cb.inner.Stats(ctx)
}

// Len implements ShardBackend (never faulted).
func (cb *Backend) Len(ctx context.Context) (int, error) {
	return cb.inner.Len(ctx)
}

// EvictIdle implements ShardBackend (never faulted).
func (cb *Backend) EvictIdle(ctx context.Context, maxIdle time.Duration) (int, error) {
	return cb.inner.EvictIdle(ctx, maxIdle)
}

// Subscribe implements ShardBackend (never faulted).
func (cb *Backend) Subscribe(ctx context.Context) (<-chan session.Event, session.CancelFunc) {
	return cb.inner.Subscribe(ctx)
}

// SubscribeFiltered implements ShardBackend (never faulted).
func (cb *Backend) SubscribeFiltered(ctx context.Context, opts session.SubscribeOptions) (<-chan session.Event, session.CancelFunc) {
	return cb.inner.SubscribeFiltered(ctx, opts)
}

// Export implements ShardBackend.
func (cb *Backend) Export(ctx context.Context, epc string) ([]byte, error) {
	if err := cb.in.inject(ctx, OpExport); err != nil {
		return nil, err
	}
	return cb.inner.Export(ctx, epc)
}

// Restore implements ShardBackend.
func (cb *Backend) Restore(ctx context.Context, epc string, state []byte) error {
	if err := cb.in.inject(ctx, OpRestore); err != nil {
		return err
	}
	return cb.inner.Restore(ctx, epc, state)
}

// Close implements ShardBackend (never faulted).
func (cb *Backend) Close(ctx context.Context) (map[string]*core.Result, error) {
	return cb.inner.Close(ctx)
}

// Ping forwards the heartbeat probe when the inner backend supports
// one, after fault injection — so a scripted ping stall exercises the
// router's per-probe timeout. Backends without a probe report healthy
// by construction, matching the router's contract.
func (cb *Backend) Ping(ctx context.Context) error {
	if err := cb.in.inject(ctx, OpPing); err != nil {
		return err
	}
	if p, ok := cb.inner.(interface{ Ping(context.Context) error }); ok {
		return p.Ping(ctx)
	}
	return nil
}

var _ session.ShardBackend = (*Backend)(nil)

// Conn wraps a net.Conn with fault injection on reads and writes, the
// transport-level counterpart of Backend. Use Dialer to splice it
// into a shardrpc client.
type Conn struct {
	net.Conn
	in *Injector
}

// WrapConn builds a fault-injecting view of c driven by in.
func WrapConn(c net.Conn, in *Injector) *Conn { return &Conn{Conn: c, in: in} }

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) {
	f, ok := c.in.check(OpRead)
	if !ok {
		return c.Conn.Read(p)
	}
	c.wait(f)
	if f.Kill {
		c.Conn.Close()
	}
	if f.Err != nil {
		return 0, f.Err
	}
	return c.Conn.Read(p)
}

// Write implements net.Conn.
func (c *Conn) Write(p []byte) (int, error) {
	f, ok := c.in.check(OpWrite)
	if !ok {
		return c.Conn.Write(p)
	}
	c.wait(f)
	if f.Drop {
		return len(p), nil // the one-way partition: we lie, the peer starves
	}
	if f.Truncate > 0 && f.Truncate < len(p) {
		n, _ := c.Conn.Write(p[:f.Truncate])
		if f.Kill {
			c.Conn.Close()
		}
		err := f.Err
		if err == nil {
			err = net.ErrClosed
		}
		return n, err
	}
	if f.Kill {
		c.Conn.Close()
	}
	if f.Err != nil {
		return 0, f.Err
	}
	return c.Conn.Write(p)
}

func (c *Conn) wait(f Fault) {
	if d := f.Latency + f.Stall; d > 0 {
		time.Sleep(d)
	}
}

// Dialer wraps a shardrpc-shaped dial function so every connection it
// returns runs through the injector. Pass the result as
// shardrpc.ClientConfig.Dialer.
func (in *Injector) Dialer(base func(addr string, timeout time.Duration) (net.Conn, error)) func(addr string, timeout time.Duration) (net.Conn, error) {
	if base == nil {
		base = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := base(addr, timeout)
		if err != nil {
			return nil, err
		}
		return WrapConn(c, in), nil
	}
}
