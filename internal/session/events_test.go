package session

import (
	"context"
	"sync"
	"testing"
	"time"

	"polardraw/internal/core"
	"polardraw/internal/reader"
)

// collectEvents drains a subscription into per-kind buckets until the
// channel closes.
type eventLog struct {
	mu sync.Mutex
	by map[EventKind][]Event
}

func collect(ch <-chan Event) (*eventLog, chan struct{}) {
	l := &eventLog{by: map[EventKind][]Event{}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range ch {
			l.mu.Lock()
			l.by[ev.Kind] = append(l.by[ev.Kind], ev)
			l.mu.Unlock()
		}
	}()
	return l, done
}

func (l *eventLog) count(k EventKind) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.by[k])
}

func (l *eventLog) get(k EventKind) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.by[k]...)
}

// TestUnifiedEventStream pins the unified stream's contract on a local
// backend: per valid window a WindowClose then a Point event (same
// window payload), Commit segments that concatenate to a prefix of the
// finalized trajectory, and exactly one Evict per session carrying the
// same Result Finalize returned.
func TestUnifiedEventStream(t *testing.T) {
	const pens = 3
	samples, _, ants := penStreams(t, pens, 77)
	perEPC := reader.SplitByEPC(samples)

	lb := NewLocalBackend(Config{
		Tracker: core.Config{Antennas: ants, Window: 0.2, CommitLag: 8},
	}, nil)

	ctx := context.Background()
	ch, cancel := lb.Subscribe(ctx)
	log, done := collect(ch)

	if err := lb.DispatchBatch(ctx, samples); err != nil {
		t.Fatal(err)
	}
	results, err := lb.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != pens {
		t.Fatalf("decoded %d pens, want %d", len(results), pens)
	}
	cancel()
	<-done

	points := log.get(EventPoint)
	wcs := log.get(EventWindowClose)
	if len(points) == 0 || len(wcs) != len(points) {
		t.Fatalf("WindowClose/Point pairing broken: %d closes, %d points", len(wcs), len(points))
	}
	// Per EPC, the k-th WindowClose and k-th Point describe the same
	// window.
	perEPCPoints := map[string][]Event{}
	for _, ev := range points {
		if !ev.Window.Valid {
			t.Fatalf("Point event with invalid window: %+v", ev)
		}
		perEPCPoints[ev.EPC] = append(perEPCPoints[ev.EPC], ev)
	}
	perEPCWCs := map[string][]Event{}
	for _, ev := range wcs {
		perEPCWCs[ev.EPC] = append(perEPCWCs[ev.EPC], ev)
	}
	for epc, ps := range perEPCPoints {
		ws := perEPCWCs[epc]
		if len(ws) != len(ps) {
			t.Fatalf("EPC %s: %d WindowClose vs %d Point events", epc, len(ws), len(ps))
		}
		for i := range ps {
			if ps[i].Window != ws[i].Window {
				t.Fatalf("EPC %s event %d: Point window %+v != WindowClose window %+v",
					epc, i, ps[i].Window, ws[i].Window)
			}
		}
	}

	// Commit segments are contiguous per EPC and match the uncorrected
	// prefix property: starts line up end to end.
	commits := map[string]int{} // next expected start per EPC
	for _, ev := range log.get(EventCommit) {
		if ev.CommitStart != commits[ev.EPC] {
			t.Fatalf("EPC %s commit starts at %d, want %d", ev.EPC, ev.CommitStart, commits[ev.EPC])
		}
		if len(ev.Segment) == 0 {
			t.Fatalf("EPC %s: empty commit segment", ev.EPC)
		}
		commits[ev.EPC] += len(ev.Segment)
	}
	if len(commits) == 0 {
		t.Fatal("no Commit events despite CommitLag > 0")
	}

	// Exactly one Evict per pen, carrying the Close result.
	evicts := log.get(EventEvict)
	if len(evicts) != pens {
		t.Fatalf("%d Evict events, want %d", len(evicts), pens)
	}
	for _, ev := range evicts {
		if ev.Err != nil {
			t.Fatalf("EPC %s evicted with error: %v", ev.EPC, ev.Err)
		}
		if ev.Result != results[ev.EPC] {
			t.Fatalf("EPC %s: Evict result is not the Close result", ev.EPC)
		}
	}

	// Per-EPC counts agree with the windows the sub-streams produced.
	for epc := range perEPC {
		if len(perEPCPoints[epc]) == 0 {
			t.Fatalf("EPC %s produced no Point events", epc)
		}
	}
}

// TestRouterEventMergeAndHealth checks that a router subscription
// merges every backend's stream (events arrive whichever shard owns
// the EPC) and adds EventBackendHealth transitions when a backend
// crosses the unhealthy boundary.
func TestRouterEventMergeAndHealth(t *testing.T) {
	const pens = 4
	samples, _, ants := penStreams(t, pens, 83)

	sm := localRouter(Config{Tracker: core.Config{Antennas: ants, Window: 0.2}}, 3)
	ctx := context.Background()
	ch, cancel := sm.Subscribe(ctx)
	log, done := collect(ch)

	if err := sm.DispatchBatch(ctx, samples); err != nil {
		t.Fatal(err)
	}
	if _, err := sm.Close(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	<-done

	if log.count(EventPoint) == 0 {
		t.Fatal("router subscription delivered no Point events")
	}
	if log.count(EventEvict) != pens {
		t.Fatalf("router subscription delivered %d Evict events, want %d", log.count(EventEvict), pens)
	}
	seen := map[string]bool{}
	for _, ev := range log.get(EventPoint) {
		seen[ev.EPC] = true
	}
	if len(seen) != pens {
		t.Fatalf("Point events covered %d pens, want %d", len(seen), pens)
	}

	// Health transitions: a failing backend crosses the boundary once
	// the streak hits unhealthyAfter, and recovers on success.
	nbs, stubs := namedStubs("hb-ok", "hb-bad")
	r := NewRouter(nbs)
	hch, hcancel := r.Subscribe(ctx)
	hlog, hdone := collect(hch)
	stubs["hb-bad"].fail = ErrClosed
	var badEPC string
	for i := 0; ; i++ {
		badEPC = string(rune('a'+i%26)) + "-probe"
		if r.BackendFor(badEPC) == "hb-bad" {
			break
		}
	}
	for i := 0; i < unhealthyAfter; i++ {
		_ = r.Dispatch(ctx, reader.Sample{EPC: badEPC})
	}
	stubs["hb-bad"].fail = nil
	for i := 0; i < healthyAfter; i++ {
		_ = r.Dispatch(ctx, reader.Sample{EPC: badEPC})
	}
	hcancel()
	<-hdone

	healthEvents := hlog.get(EventBackendHealth)
	if len(healthEvents) < 2 {
		t.Fatalf("health transitions = %d, want down + up", len(healthEvents))
	}
	if ev := healthEvents[0]; ev.Backend != "hb-bad" || ev.Healthy {
		t.Fatalf("first transition = %+v, want hb-bad unhealthy", ev)
	}
	if ev := healthEvents[len(healthEvents)-1]; ev.Backend != "hb-bad" || !ev.Healthy {
		t.Fatalf("last transition = %+v, want hb-bad recovered", ev)
	}
}

// TestEventSubscriptionLifecycle covers cancel and ctx-expiry
// detachment plus the lossy-when-full accounting.
func TestEventSubscriptionLifecycle(t *testing.T) {
	var hub EventHub

	// Cancel closes the channel.
	ch, cancel := hub.Subscribe(context.Background(), 4)
	hub.Publish(Event{Kind: EventPoint, EPC: "a"})
	cancel()
	cancel() // idempotent
	deadline := time.After(5 * time.Second)
	for open := true; open; {
		select {
		case _, open = <-ch:
		case <-deadline:
			t.Fatal("channel not closed after cancel")
		}
	}

	// ctx expiry detaches too.
	ctx, ctxCancel := context.WithCancel(context.Background())
	ch2, _ := hub.Subscribe(ctx, 4)
	ctxCancel()
	deadline = time.After(5 * time.Second)
	for open := true; open; {
		select {
		case _, open = <-ch2:
		case <-deadline:
			t.Fatal("channel not closed after ctx expiry")
		}
	}

	// Full buffers drop and count instead of blocking.
	ch3, cancel3 := hub.Subscribe(context.Background(), 2)
	defer cancel3()
	for i := 0; i < 5; i++ {
		hub.Publish(Event{Kind: EventPoint})
	}
	if got := hub.Dropped(); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
	if len(ch3) != 2 {
		t.Fatalf("buffered = %d, want 2", len(ch3))
	}
}

// TestManagerOpenSemantics pins Open's contract: per-session options
// take effect, the cap returns ErrSessionLimit without evicting, a
// live EPC is a no-op, and options die with the session instance.
func TestManagerOpenSemantics(t *testing.T) {
	_, _, ants := penStreams(t, 1, 5)
	m := NewManager(Config{
		Tracker:     core.Config{Antennas: ants},
		MaxSessions: 2,
	})

	topK := 32
	if err := m.Open("pen-a", OpenOptions{BeamTopK: &topK}); err != nil {
		t.Fatal(err)
	}
	if err := m.Open("pen-a", OpenOptions{}); err != nil {
		t.Fatalf("re-open of live EPC: %v, want nil no-op", err)
	}
	if err := m.Open("pen-b", OpenOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Open("pen-c", OpenOptions{}); err != ErrSessionLimit {
		t.Fatalf("open at cap: %v, want ErrSessionLimit", err)
	}
	if m.Len() != 2 {
		t.Fatalf("open at cap changed the session set: len=%d", m.Len())
	}

	// Bad options are rejected before touching state.
	neg := -1
	if err := m.Open("pen-d", OpenOptions{BeamTopK: &neg}); err == nil {
		t.Fatal("negative BeamTopK accepted")
	}
	badAdaptive := true
	zero := 0
	if err := m.Open("pen-d", OpenOptions{BeamAdaptive: &badAdaptive, BeamTopK: &zero}); err == nil {
		t.Fatal("BeamAdaptive with BeamTopK=0 accepted")
	}

	m.Close()
	if err := m.Open("pen-x", OpenOptions{}); err != ErrClosed {
		t.Fatalf("open after close: %v, want ErrClosed", err)
	}
}
