package session

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"polardraw/internal/core"
	"polardraw/internal/reader"
)

// stubBackend records dispatches and optionally fails everything.
type stubBackend struct {
	mu       sync.Mutex
	got      []reader.Sample
	opened   map[string]OpenOptions
	fail     error
	finalize map[string]*core.Result
	exported map[string][]byte
	restored map[string][]byte
	hub      EventHub
}

func (s *stubBackend) Open(_ context.Context, epc string, opts OpenOptions) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail != nil {
		return s.fail
	}
	if s.opened == nil {
		s.opened = map[string]OpenOptions{}
	}
	s.opened[epc] = opts
	return nil
}

func (s *stubBackend) Dispatch(_ context.Context, smp reader.Sample) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail != nil {
		return s.fail
	}
	s.got = append(s.got, smp)
	return nil
}

func (s *stubBackend) DispatchBatch(ctx context.Context, batch []reader.Sample) error {
	for _, smp := range batch {
		if err := s.Dispatch(ctx, smp); err != nil {
			return err
		}
	}
	return nil
}

func (s *stubBackend) Finalize(_ context.Context, epc string) (*core.Result, error) {
	if s.fail != nil {
		return nil, s.fail
	}
	if r, ok := s.finalize[epc]; ok {
		return r, nil
	}
	return nil, ErrUnknownEPC
}

func (s *stubBackend) Stats(context.Context) ([]Stats, error) {
	if s.fail != nil {
		return nil, s.fail
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := map[string]bool{}
	var out []Stats
	for _, smp := range s.got {
		if !seen[smp.EPC] {
			seen[smp.EPC] = true
			out = append(out, Stats{EPC: smp.EPC})
		}
	}
	return out, nil
}

func (s *stubBackend) Len(ctx context.Context) (int, error) {
	st, err := s.Stats(ctx)
	return len(st), err
}

func (s *stubBackend) EvictIdle(context.Context, time.Duration) (int, error) {
	if s.fail != nil {
		return 0, s.fail
	}
	return 0, nil
}

func (s *stubBackend) Subscribe(ctx context.Context) (<-chan Event, CancelFunc) {
	return s.hub.Subscribe(ctx, 0)
}

func (s *stubBackend) SubscribeFiltered(ctx context.Context, opts SubscribeOptions) (<-chan Event, CancelFunc) {
	return s.hub.SubscribeFiltered(ctx, 0, opts)
}

func (s *stubBackend) Export(_ context.Context, epc string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail != nil {
		return nil, s.fail
	}
	if s.exported == nil {
		s.exported = map[string][]byte{}
	}
	state := []byte("state:" + epc)
	s.exported[epc] = state
	return state, nil
}

func (s *stubBackend) Restore(_ context.Context, epc string, state []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail != nil {
		return s.fail
	}
	if s.restored == nil {
		s.restored = map[string][]byte{}
	}
	s.restored[epc] = append([]byte(nil), state...)
	return nil
}

func (s *stubBackend) Close(context.Context) (map[string]*core.Result, error) {
	if s.fail != nil {
		return nil, s.fail
	}
	return map[string]*core.Result{}, nil
}

func namedStubs(names ...string) ([]NamedBackend, map[string]*stubBackend) {
	var nbs []NamedBackend
	stubs := map[string]*stubBackend{}
	for _, n := range names {
		sb := &stubBackend{}
		stubs[n] = sb
		nbs = append(nbs, NamedBackend{Name: n, Backend: sb})
	}
	return nbs, stubs
}

// TestRouterRendezvousStability checks the property the modulo hash
// lacked and the consistent-hash router exists for: growing the
// backend set remaps an EPC only if the NEW backend wins its
// rendezvous — every other EPC keeps its original backend — and
// removing the added backend restores the original mapping exactly.
func TestRouterRendezvousStability(t *testing.T) {
	nbs3, _ := namedStubs("a:1", "b:1", "c:1")
	nbs4, _ := namedStubs("a:1", "b:1", "c:1", "d:1")
	r3 := NewRouter(nbs3)
	r4 := NewRouter(nbs4)

	epcs := make([]string, 0, 512)
	for i := 0; i < 512; i++ {
		epcs = append(epcs, fmt.Sprintf("pen-%04d", i))
	}
	moved := 0
	for _, epc := range epcs {
		before, after := r3.BackendFor(epc), r4.BackendFor(epc)
		if after != before {
			if after != "d:1" {
				t.Fatalf("EPC %s moved %s -> %s, not to the added backend", epc, before, after)
			}
			moved++
		}
	}
	// Rendezvous should hand the new backend roughly 1/4 of the keys;
	// a modulo hash would have remapped ~3/4. Accept a generous band.
	if moved == 0 || moved > len(epcs)/2 {
		t.Fatalf("adding a backend moved %d/%d EPCs; want ~1/4", moved, len(epcs))
	}

	// Shrink back: mapping identical to the original.
	r3b := NewRouter(nbs3[:3])
	for _, epc := range epcs {
		if r3.BackendFor(epc) != r3b.BackendFor(epc) {
			t.Fatalf("EPC %s mapping unstable across identical configurations", epc)
		}
	}
}

// TestRouterOrderAndPartition checks DispatchBatch keeps per-EPC order
// inside each backend's sub-batch.
func TestRouterOrderAndPartition(t *testing.T) {
	nbs, stubs := namedStubs("x", "y", "z")
	r := NewRouter(nbs)
	var batch []reader.Sample
	for i := 0; i < 300; i++ {
		batch = append(batch, reader.Sample{T: float64(i), EPC: fmt.Sprintf("pen-%d", i%17)})
	}
	if err := r.DispatchBatch(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	total := 0
	lastT := map[string]float64{}
	for name, sb := range stubs {
		sb.mu.Lock()
		for _, smp := range sb.got {
			if want := r.BackendFor(smp.EPC); want != name {
				t.Fatalf("EPC %s landed on %s, routed to %s", smp.EPC, name, want)
			}
			if prev, ok := lastT[smp.EPC]; ok && smp.T <= prev {
				t.Fatalf("EPC %s order violated: %v after %v", smp.EPC, smp.T, prev)
			}
			lastT[smp.EPC] = smp.T
			total++
		}
		sb.mu.Unlock()
	}
	if total != len(batch) {
		t.Fatalf("delivered %d of %d samples", total, len(batch))
	}
}

// TestRouterHealth checks drop/error accounting against a failing
// backend: its samples are counted dropped and it turns unhealthy,
// while healthy backends keep serving.
func TestRouterHealth(t *testing.T) {
	nbs, stubs := namedStubs("ok", "bad")
	stubs["bad"].fail = errors.New("connection refused")
	r := NewRouter(nbs)

	var badEPC, okEPC string
	for i := 0; ; i++ {
		epc := fmt.Sprintf("pen-%d", i)
		if r.BackendFor(epc) == "bad" && badEPC == "" {
			badEPC = epc
		}
		if r.BackendFor(epc) == "ok" && okEPC == "" {
			okEPC = epc
		}
		if badEPC != "" && okEPC != "" {
			break
		}
	}

	for i := 0; i < unhealthyAfter; i++ {
		if err := r.Dispatch(context.Background(), reader.Sample{EPC: badEPC}); err == nil {
			t.Fatal("dispatch to failing backend should error")
		}
	}
	if err := r.Dispatch(context.Background(), reader.Sample{EPC: okEPC}); err != nil {
		t.Fatal(err)
	}

	healths := map[string]BackendHealth{}
	for _, h := range r.Health() {
		healths[h.Name] = h
	}
	bad, ok := healths["bad"], healths["ok"]
	if bad.Healthy || bad.Dropped != uint64(unhealthyAfter) || bad.Errors != uint64(unhealthyAfter) || bad.LastErr == "" {
		t.Fatalf("bad backend health = %+v", bad)
	}
	if !ok.Healthy || ok.Dropped != 0 || ok.Dispatched != 1 {
		t.Fatalf("ok backend health = %+v", ok)
	}
	if r.Dropped() != uint64(unhealthyAfter) {
		t.Fatalf("router dropped = %d, want %d", r.Dropped(), unhealthyAfter)
	}

	// Errors on Stats/EvictIdle/Close surface but don't stop the
	// healthy backend's contribution.
	if _, err := r.Stats(context.Background()); err == nil {
		t.Fatal("Stats should join the failing backend's error")
	}
	if _, err := r.EvictIdle(context.Background(), time.Minute); err == nil {
		t.Fatal("EvictIdle should join the failing backend's error")
	}
	if _, err := r.Close(context.Background()); err == nil {
		t.Fatal("Close should join the failing backend's error")
	}
}

// localRouter is the single-process topology: a Router over shards
// LocalBackends sharing one tracker, named shard-0 … shard-(n-1).
func localRouter(cfg Config, shards int) *Router {
	tr := core.New(cfg.Tracker)
	nbs := make([]NamedBackend, shards)
	for i := range nbs {
		nbs[i] = NamedBackend{Name: fmt.Sprintf("shard-%d", i), Backend: NewLocalBackend(cfg, tr)}
	}
	r := NewRouter(nbs)
	r.SetEventBuffer(cfg.EventBuffer)
	return r
}

// TestShardedDemuxMatchesBatch pushes a mixed multi-pen stream through
// the single-process topology (a Router over in-process shards sharing
// one tracker) and requires, per EPC, exactly the batch-track result
// for that EPC's sub-stream: the contract the flat Manager honours,
// across shards.
func TestShardedDemuxMatchesBatch(t *testing.T) {
	const pens = 6
	samples, _, ants := penStreams(t, pens, 9)
	// 6 pens share the reader, so widen the window to keep every pen's
	// dual-antenna read rate above the validity threshold.
	cfg := Config{Tracker: core.Config{Antennas: ants, Window: 0.2}}
	r := localRouter(cfg, 3)
	if err := r.DispatchBatch(context.Background(), samples); err != nil {
		t.Fatal(err)
	}
	results, err := r.Close(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != pens {
		t.Fatalf("results = %d, want %d", len(results), pens)
	}
	perEPC := reader.SplitByEPC(samples)
	batchTr := core.New(cfg.Tracker)
	for epc, res := range results {
		want, err := batchTr.Track(perEPC[epc])
		if err != nil {
			t.Fatalf("batch track %s: %v", epc, err)
		}
		if len(res.Trajectory) != len(want.Trajectory) {
			t.Fatalf("%s: trajectory %d points, want %d",
				epc, len(res.Trajectory), len(want.Trajectory))
		}
		for i := range want.Trajectory {
			if math.Abs(res.Trajectory[i].X-want.Trajectory[i].X) > 1e-9 ||
				math.Abs(res.Trajectory[i].Y-want.Trajectory[i].Y) > 1e-9 {
				t.Fatalf("%s: trajectory[%d] = %+v, want %+v",
					epc, i, res.Trajectory[i], want.Trajectory[i])
			}
		}
	}
}

// TestShardedJoinLeaveRace exercises the single-process topology under
// the conditions the race detector cares about: many pens dispatched
// concurrently from separate goroutines, pens leaving mid-stream via
// Finalize, late pens joining after others finished, and a
// mid-traffic Stats/Len/EvictIdle/Health poller.
func TestShardedJoinLeaveRace(t *testing.T) {
	const pens = 8
	samples, _, ants := penStreams(t, pens, 13)
	perEPC := reader.SplitByEPC(samples)
	if len(perEPC) != pens {
		t.Fatalf("scenario produced %d EPCs, want %d", len(perEPC), pens)
	}
	r := localRouter(Config{
		Tracker:     core.Config{Antennas: ants, Window: 0.3},
		EventBuffer: 1 << 12, // never shed: every eviction must arrive
		QueueSize:   64,
	}, 3)
	ch, cancel := r.SubscribeFiltered(context.Background(),
		SubscribeOptions{Kinds: []EventKind{EventEvict}})
	defer cancel()
	log, evDone := collect(ch)

	epcs := make([]string, 0, pens)
	for epc := range perEPC {
		epcs = append(epcs, epc)
	}

	var wg sync.WaitGroup
	// Each pen streams from its own goroutine (per-EPC order is the
	// per-goroutine dispatch order). Half the pens join late.
	for i, epc := range epcs {
		wg.Add(1)
		go func(i int, epc string) {
			defer wg.Done()
			if i%2 == 1 {
				time.Sleep(5 * time.Millisecond) // late joiner
			}
			for _, smp := range perEPC[epc] {
				if err := r.Dispatch(context.Background(), smp); err != nil {
					t.Errorf("dispatch %s: %v", epc, err)
					return
				}
			}
			if i%3 == 0 {
				// Leave mid-stream from the pen's own goroutine: the
				// result covers every sample dispatched so far.
				r.Finalize(context.Background(), epc)
			}
		}(i, epc)
	}
	// A metrics poller races the dispatchers.
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Len(context.Background())
				r.Stats(context.Background())
				r.EvictIdle(context.Background(), time.Minute)
				r.Health()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	// Wait for dispatchers (all but the poller).
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	go func() {
		// Poller stops once dispatchers are done; give them a beat.
		time.Sleep(50 * time.Millisecond)
		close(stop)
	}()
	<-done

	r.Close(context.Background())
	<-evDone
	finalized := map[string]bool{} // a result or error was delivered
	for _, ev := range log.get(EventEvict) {
		finalized[ev.EPC] = true
	}
	for _, epc := range epcs {
		if !finalized[epc] {
			t.Errorf("EPC %s never published an Evict event", epc)
		}
	}
}

// TestShardStability checks that an EPC always routes to the same
// in-process shard (the property per-EPC ordering rests on).
func TestShardStability(t *testing.T) {
	r := localRouter(Config{}, 7)
	defer r.Close(context.Background())
	for _, epc := range []string{"", "a", "E280-1160-6000-0001", "pen-042"} {
		s0 := r.BackendFor(epc)
		for i := 0; i < 10; i++ {
			if r.BackendFor(epc) != s0 {
				t.Fatalf("EPC %q moved shards", epc)
			}
		}
	}
}

// TestRouterConcurrentCallbacks exercises the router's event merge
// under -race: every session worker on every shard behind the router
// publishes Point and Evict events simultaneously, and one filtered
// subscription must still see every pen's points and exactly one
// eviction per pen.
func TestRouterConcurrentCallbacks(t *testing.T) {
	const pens = 8
	samples, _, ants := penStreams(t, pens, 23)
	perEPC := reader.SplitByEPC(samples)
	if len(perEPC) != pens {
		t.Fatalf("scenario produced %d EPCs, want %d", len(perEPC), pens)
	}

	sm := localRouter(Config{
		Tracker:     core.Config{Antennas: ants, Window: 0.25, CommitLag: 8},
		EventBuffer: 1 << 16, // never shed: the counts below are exact
	}, 4)
	ch, cancel := sm.SubscribeFiltered(context.Background(),
		SubscribeOptions{Kinds: []EventKind{EventPoint, EventEvict}})
	defer cancel()
	log, done := collect(ch)

	// Every pen streams from its own goroutine, so the four shard
	// workers run hot simultaneously and their events genuinely
	// overlap.
	var wg sync.WaitGroup
	for epc := range perEPC {
		wg.Add(1)
		go func(epc string) {
			defer wg.Done()
			for _, smp := range perEPC[epc] {
				if err := sm.Dispatch(context.Background(), smp); err != nil {
					t.Errorf("dispatch %s: %v", epc, err)
					return
				}
			}
		}(epc)
	}
	wg.Wait()
	if _, err := sm.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-done // Close flushes the stream and ends the subscription

	points := map[string]int{}
	for _, ev := range log.get(EventPoint) {
		points[ev.EPC]++
	}
	evicts := map[string]int{}
	for _, ev := range log.get(EventEvict) {
		evicts[ev.EPC]++
	}
	if len(points) != pens {
		t.Fatalf("Point events reached %d pens, want %d", len(points), pens)
	}
	if len(evicts) != pens {
		t.Fatalf("Evict events reached %d pens, want %d", len(evicts), pens)
	}
	for epc, n := range evicts {
		if n != 1 {
			t.Fatalf("EPC %s evicted %d times", epc, n)
		}
	}
}

// pingableStub is a stubBackend that also answers liveness probes, the
// way a shardrpc.Client does; pingErr controls the outcome.
type pingableStub struct {
	stubBackend
	mu      sync.Mutex
	pingErr error
	pings   int
}

func (p *pingableStub) Ping(context.Context) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pings++
	return p.pingErr
}

func (p *pingableStub) setPingErr(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pingErr = err
}

func (p *pingableStub) pingCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pings
}

// TestRouterHeartbeat covers the periodic-probe slice of shard
// discovery: a dead backend must be reported unhealthy within a few
// intervals even with zero dispatch traffic, a recovered one must
// return to healthy, and the EPC->backend mapping must not move either
// way (routing stability is preserved; health is advisory).
func TestRouterHeartbeat(t *testing.T) {
	good, bad := &pingableStub{}, &pingableStub{}
	bad.setPingErr(errors.New("connection refused"))
	r := NewRouter([]NamedBackend{
		{Name: "good:1", Backend: good},
		{Name: "bad:1", Backend: bad},
		{Name: "local", Backend: &stubBackend{}}, // not probeable: skipped
	})
	defer r.StopHeartbeat()

	before := map[string]string{}
	for i := 0; i < 64; i++ {
		epc := fmt.Sprintf("pen-%02d", i)
		before[epc] = r.BackendFor(epc)
	}

	r.StartHeartbeat(time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if h, u := r.HealthCounts(); h == 2 && u == 1 {
			break
		}
		if time.Now().After(deadline) {
			h, u := r.HealthCounts()
			t.Fatalf("healthy=%d unhealthy=%d, want 2/1", h, u)
		}
		time.Sleep(time.Millisecond)
	}
	if good.pingCount() == 0 || bad.pingCount() < unhealthyAfter {
		t.Fatalf("pings: good=%d bad=%d, want >0 and >=%d", good.pingCount(), bad.pingCount(), unhealthyAfter)
	}
	for _, h := range r.Health() {
		switch h.Name {
		case "good:1":
			if !h.Healthy || h.Pings == 0 || h.PingFails != 0 {
				t.Fatalf("good backend health %+v", h)
			}
		case "bad:1":
			if h.Healthy || h.PingFails == 0 {
				t.Fatalf("bad backend health %+v", h)
			}
		case "local":
			if !h.Healthy || h.Pings != 0 {
				t.Fatalf("local backend health %+v", h)
			}
		}
	}

	// Recovery: the failing backend comes back; healthyAfter successful
	// probes in a row bring it back across the boundary.
	bad.setPingErr(nil)
	deadline = time.Now().Add(5 * time.Second)
	for {
		if h, u := r.HealthCounts(); h == 3 && u == 0 {
			break
		}
		if time.Now().After(deadline) {
			h, u := r.HealthCounts()
			t.Fatalf("after recovery healthy=%d unhealthy=%d, want 3/0", h, u)
		}
		time.Sleep(time.Millisecond)
	}

	// Routing never moved: health is reported, not acted on.
	for epc, want := range before {
		if got := r.BackendFor(epc); got != want {
			t.Fatalf("EPC %s moved %s -> %s during health changes", epc, want, got)
		}
	}

	// A backend that answers pings but rejects traffic must still go
	// unhealthy: the probe streak may not erase the call streak.
	good.stubBackend.fail = errors.New("manager wedged")
	var epc string
	for i := 0; ; i++ {
		epc = fmt.Sprintf("probe-%02d", i)
		if r.BackendFor(epc) == "good:1" {
			break
		}
	}
	for i := 0; i < unhealthyAfter; i++ {
		if err := r.Dispatch(context.Background(), reader.Sample{EPC: epc}); err == nil {
			t.Fatal("dispatch to failing backend succeeded")
		}
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		// Survives successful pings: wait a few probe rounds and check
		// the backend is still (not just transiently) unhealthy.
		if h, u := r.HealthCounts(); h == 2 && u == 1 {
			p := good.pingCount()
			for good.pingCount() < p+2 {
				time.Sleep(time.Millisecond)
			}
			if h, u := r.HealthCounts(); h == 2 && u == 1 {
				break
			}
		}
		if time.Now().After(deadline) {
			h, u := r.HealthCounts()
			t.Fatalf("dispatch-dead backend: healthy=%d unhealthy=%d, want 2/1", h, u)
		}
		time.Sleep(time.Millisecond)
	}
	r.StopHeartbeat() // idempotent with the deferred stop
}

// TestRouterForwardsEvictAfterHandoffFinalize: a stroke handed off to
// a backend that is not its rendezvous winner and finalized there
// still delivers its EventEvict, which the backend publishes only
// after Finalize has dropped the routing override. Exactly one
// eviction reaches the subscriber; later events from that backend for
// the EPC stay suppressed like any stale incarnation's. When a
// stroke's eviction never arrives, the EPC's next placement ends the
// exception, and with no forwarding armed Finalize records nothing.
func TestRouterForwardsEvictAfterHandoffFinalize(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	nbs, stubs := namedStubs("a:1", "b:1", "c:1")
	r := NewRouter(nbs)
	epc := epcOwnedBy(t, r, "a:1")
	b := stubs["b:1"]
	handOffAndFinalize := func(to string) {
		t.Helper()
		if err := r.Dispatch(ctx, reader.Sample{EPC: epc, T: 1}); err != nil {
			t.Fatal(err)
		}
		if err := r.Handoff(ctx, epc, to); err != nil {
			t.Fatal(err)
		}
		stubs[to].finalize = map[string]*core.Result{epc: {}}
		if _, err := r.Finalize(ctx, epc); err != nil {
			t.Fatal(err)
		}
		if got := r.BackendFor(epc); got != "a:1" {
			t.Fatalf("after finalize EPC routes to %s, want its rendezvous winner", got)
		}
	}

	handOffAndFinalize("b:1")
	if n := len(r.finishedOn); n != 0 {
		t.Fatalf("router without forwarding kept %d finished-stroke entries, want 0", n)
	}

	events, stop := r.Subscribe(ctx)
	defer stop()
	// The backend's own events arrive after Finalize returned, as an
	// asynchronous event stream delivers them. b:1's events are
	// forwarded in order, so a marker for an EPC b:1 owns, published
	// last, ends each batch; drain returns the batch's events for epc.
	marker := epcOwnedBy(t, r, "b:1")
	drain := func(batch ...Event) []EventKind {
		t.Helper()
		for _, ev := range batch {
			b.hub.Publish(ev)
		}
		b.hub.Publish(Event{Kind: EventPoint, EPC: marker})
		var got []EventKind
		timeout := time.After(5 * time.Second)
		for {
			select {
			case ev := <-events:
				if ev.EPC == marker {
					return got
				}
				if ev.EPC == epc {
					got = append(got, ev.Kind)
				}
			case <-timeout:
				t.Fatal("marker event never arrived")
			}
		}
	}
	evict := Event{Kind: EventEvict, EPC: epc}
	point := Event{Kind: EventPoint, EPC: epc}

	handOffAndFinalize("b:1")
	if got := drain(evict, evict, point); len(got) != 1 || got[0] != EventEvict {
		t.Fatalf("subscriber saw %v for %s, want exactly one eviction", got, epc)
	}

	// This stroke's eviction is lost; the next stroke goes to c:1.
	handOffAndFinalize("b:1")
	if err := r.Dispatch(ctx, reader.Sample{EPC: epc, T: 2}); err != nil {
		t.Fatal(err)
	}
	if err := r.Handoff(ctx, epc, "c:1"); err != nil {
		t.Fatal(err)
	}
	if got := drain(point, evict); len(got) != 0 {
		t.Fatalf("b:1's stale events %v for %s forwarded while the stroke is live on c:1", got, epc)
	}
}
