package session

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"polardraw/internal/core"
	"polardraw/internal/reader"
)

// blockingBackend wedges every call until its context ends or release
// closes — the stand-in for a dead remote when testing the router's
// context propagation.
type blockingBackend struct {
	release chan struct{}
	hub     EventHub
}

func newBlockingBackend() *blockingBackend {
	return &blockingBackend{release: make(chan struct{})}
}

func (b *blockingBackend) wait(ctx context.Context) error {
	select {
	case <-b.release:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (b *blockingBackend) Open(ctx context.Context, _ string, _ OpenOptions) error {
	return b.wait(ctx)
}
func (b *blockingBackend) Dispatch(ctx context.Context, _ reader.Sample) error {
	return b.wait(ctx)
}
func (b *blockingBackend) DispatchBatch(ctx context.Context, _ []reader.Sample) error {
	return b.wait(ctx)
}
func (b *blockingBackend) Finalize(ctx context.Context, _ string) (*core.Result, error) {
	return nil, b.wait(ctx)
}
func (b *blockingBackend) Stats(ctx context.Context) ([]Stats, error) {
	return nil, b.wait(ctx)
}
func (b *blockingBackend) Len(ctx context.Context) (int, error) {
	return 0, b.wait(ctx)
}
func (b *blockingBackend) EvictIdle(ctx context.Context, _ time.Duration) (int, error) {
	return 0, b.wait(ctx)
}
func (b *blockingBackend) Subscribe(ctx context.Context) (<-chan Event, CancelFunc) {
	return b.hub.Subscribe(ctx, 0)
}
func (b *blockingBackend) SubscribeFiltered(ctx context.Context, opts SubscribeOptions) (<-chan Event, CancelFunc) {
	return b.hub.SubscribeFiltered(ctx, 0, opts)
}
func (b *blockingBackend) Export(ctx context.Context, _ string) ([]byte, error) {
	return nil, b.wait(ctx)
}
func (b *blockingBackend) Restore(ctx context.Context, _ string, _ []byte) error {
	return b.wait(ctx)
}
func (b *blockingBackend) Close(ctx context.Context) (map[string]*core.Result, error) {
	return nil, b.wait(ctx)
}

// TestLocalBackendContext exercises the prompt-cancellation guarantee
// on the in-process backend under -race: a Dispatch blocked on a
// wedged pipeline (full session queue behind a stalled window hook)
// returns ctx.Err() promptly, as does a Finalize waiting on the wedged
// worker; already-expired contexts short-circuit the fast control
// calls.
func TestLocalBackendContext(t *testing.T) {
	_, _, ants := penStreams(t, 1, 3)

	blocked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	lb := NewLocalBackend(Config{
		Tracker:   core.Config{Antennas: ants, Window: 0.01},
		QueueSize: 1,
	}, nil)
	lb.m.windowHook = func(string) {
		once.Do(func() { close(blocked) })
		<-release
	}
	defer func() {
		close(release)
		if _, err := lb.Close(context.Background()); err != nil {
			t.Error(err)
		}
	}()

	// Feed samples until the first window closes and the hook wedges the
	// session worker; from there the session queue fills and Dispatch
	// must block.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-blocked
		time.Sleep(20 * time.Millisecond) // let the queue actually fill
		cancel()
	}()
	var dispatchErr error
	start := time.Now()
	for i := 0; i < 100000 && dispatchErr == nil; i++ {
		smp := reader.Sample{T: float64(i) * 0.002, Antenna: i % 2, EPC: "pen-ctx"}
		dispatchErr = lb.Dispatch(ctx, smp)
	}
	if !errors.Is(dispatchErr, context.Canceled) {
		t.Fatalf("wedged Dispatch returned %v, want context.Canceled", dispatchErr)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v — not prompt", elapsed)
	}

	// Finalize against the wedged worker: the drain cannot finish, so
	// the deadline must win promptly.
	dctx, dcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer dcancel()
	start = time.Now()
	if _, err := lb.Finalize(dctx, "pen-ctx"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wedged Finalize returned %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Finalize cancellation took %v — not prompt", elapsed)
	}

	// Expired contexts short-circuit the fast calls.
	expired, ecancel := context.WithCancel(context.Background())
	ecancel()
	if _, err := lb.Stats(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("Stats with expired ctx: %v", err)
	}
	if _, err := lb.EvictIdle(expired, time.Minute); !errors.Is(err, context.Canceled) {
		t.Fatalf("EvictIdle with expired ctx: %v", err)
	}
	if err := lb.Open(expired, "x", OpenOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Open with expired ctx: %v", err)
	}
}

// TestRouterContextPropagation checks the router passes contexts
// through to its backends, returns the context error promptly from a
// wedged backend, and does NOT damage that backend's health: the
// caller's own deadline says nothing about the backend.
func TestRouterContextPropagation(t *testing.T) {
	bb := newBlockingBackend()
	r := NewRouter([]NamedBackend{{Name: "wedged", Backend: bb}})

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := r.Dispatch(ctx, reader.Sample{EPC: "p"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("router Dispatch returned %v, want context.DeadlineExceeded", err)
	}
	if _, err := r.Finalize(ctx, "p"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("router Finalize returned %v, want context.DeadlineExceeded", err)
	}
	if _, err := r.Stats(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("router Stats returned %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("router cancellation took %v — not prompt", elapsed)
	}
	for _, h := range r.Health() {
		if !h.Healthy {
			t.Fatalf("caller-side cancellation marked backend unhealthy: %+v", h)
		}
	}

	// Released backend serves normally with a live context.
	close(bb.release)
	if err := r.Dispatch(context.Background(), reader.Sample{EPC: "p"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}
