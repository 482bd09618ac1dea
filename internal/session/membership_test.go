package session

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"polardraw/internal/core"
	"polardraw/internal/reader"
)

// detachStub is a stubBackend whose transport can detach without
// closing the remote manager, the way shardrpc.Client.Detach does.
type detachStub struct {
	stubBackend
	detached sync.Once
	gone     bool
}

func (d *detachStub) Detach() error {
	d.detached.Do(func() { d.gone = true })
	return nil
}

func TestMembershipValidate(t *testing.T) {
	ok := Membership{Epoch: 1, Members: []Member{{Name: "a"}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid membership rejected: %v", err)
	}
	cases := []struct {
		name string
		m    Membership
	}{
		{"zero epoch", Membership{Members: []Member{{Name: "a"}}}},
		{"no members", Membership{Epoch: 1}},
		{"empty name", Membership{Epoch: 1, Members: []Member{{Name: ""}}}},
		{"duplicate name", Membership{Epoch: 1, Members: []Member{{Name: "a"}, {Name: "a"}}}},
		{"no active member", Membership{Epoch: 1, Members: []Member{{Name: "a", State: StateDraining}}}},
	}
	for _, tc := range cases {
		if err := tc.m.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestBackendStateString(t *testing.T) {
	for st, want := range map[BackendState]string{
		StateActive: "active", StateDraining: "draining", StateSpare: "spare", BackendState(9): "state(9)",
	} {
		if got := st.String(); got != want {
			t.Fatalf("state %d = %q, want %q", st, got, want)
		}
	}
}

// TestRouterApplyMembershipJoinLeave walks one shard in and another
// out through epochs, checking the table, the epoch, the published
// event, and that the leaver's transport detaches instead of closing.
func TestRouterApplyMembershipJoinLeave(t *testing.T) {
	ctx := context.Background()
	nbs, _ := namedStubs("a:1", "b:1")
	r := NewRouter(nbs)
	r.SetJournal(NewMemJournal(0))

	joined := map[string]*detachStub{}
	r.SetDialer(func(name, addr string) (ShardBackend, error) {
		if addr != name+":addr" {
			return nil, fmt.Errorf("dialer got addr %q", addr)
		}
		ds := &detachStub{}
		joined[name] = ds
		return ds, nil
	})

	events, cancel := r.Subscribe(ctx)
	defer cancel()

	m := Membership{Epoch: 1, Members: []Member{
		{Name: "a:1"}, {Name: "b:1"}, {Name: "c:1", Addr: "c:1:addr"},
	}}
	if err := r.ApplyMembership(ctx, m); err != nil {
		t.Fatal(err)
	}
	if r.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", r.Epoch())
	}
	if joined["c:1"] == nil {
		t.Fatal("join never dialed c:1")
	}
	got := r.Membership()
	if len(got.Members) != 3 {
		t.Fatalf("members = %v, want 3", got.Members)
	}

	// The join must be routable: some EPC lands on it.
	epc := epcOwnedBy(t, r, "c:1")
	if err := r.Dispatch(ctx, reader.Sample{EPC: epc, T: 1}); err != nil {
		t.Fatal(err)
	}

	// Epoch 2: c:1 leaves again; its session must migrate and its
	// transport detach (not Close — other routers may still use it).
	if err := r.ApplyMembership(ctx, Membership{Epoch: 2, Members: []Member{
		{Name: "a:1"}, {Name: "b:1"},
	}}); err != nil {
		t.Fatal(err)
	}
	for _, n := range r.Backends() {
		if n == "c:1" {
			t.Fatal("c:1 still in the table after leaving")
		}
	}
	if !joined["c:1"].gone {
		t.Fatal("leaver was not detached")
	}

	// Both epochs published one EventMembership each.
	seen := 0
	deadline := time.After(5 * time.Second)
	for seen < 2 {
		select {
		case ev := <-events:
			if ev.Kind == EventMembership {
				seen++
				if ev.Epoch != uint64(seen) {
					t.Fatalf("membership event epoch %d, want %d", ev.Epoch, seen)
				}
				if len(ev.Members) == 0 {
					t.Fatal("membership event without members")
				}
			}
		case <-deadline:
			t.Fatalf("saw %d membership events, want 2", seen)
		}
	}
}

func TestRouterApplyMembershipStaleEpoch(t *testing.T) {
	ctx := context.Background()
	nbs, _ := namedStubs("a:1", "b:1")
	r := NewRouter(nbs)
	m := Membership{Epoch: 3, Members: []Member{{Name: "a:1"}, {Name: "b:1"}}}
	if err := r.ApplyMembership(ctx, m); err != nil {
		t.Fatal(err)
	}
	for _, epoch := range []uint64{3, 2, 1} {
		m.Epoch = epoch
		if err := r.ApplyMembership(ctx, m); !errors.Is(err, ErrStaleEpoch) {
			t.Fatalf("epoch %d accepted over 3: %v", epoch, err)
		}
	}
	if r.Epoch() != 3 {
		t.Fatalf("epoch moved to %d under stale updates", r.Epoch())
	}
}

// TestRouterDrainMigratesPinned covers the graceful-drain core: a
// draining member exports each session it serves, the target restores
// it, and the route re-pins — mid-stroke, without data loss.
func TestRouterDrainMigratesPinned(t *testing.T) {
	ctx := context.Background()
	nbs, stubs := namedStubs("a:1", "b:1")
	r := NewRouter(nbs)
	r.SetJournal(NewMemJournal(0))

	epc := epcOwnedBy(t, r, "a:1")
	for i := 0; i < 3; i++ {
		if err := r.Dispatch(ctx, reader.Sample{EPC: epc, T: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}

	// Epoch 1 marks a:1 draining (still a member).
	if err := r.ApplyMembership(ctx, Membership{Epoch: 1, Members: []Member{
		{Name: "a:1", State: StateDraining}, {Name: "b:1"},
	}}); err != nil {
		t.Fatal(err)
	}

	wantState := []byte("state:" + epc)
	if got := stubs["b:1"].restored[epc]; string(got) != string(wantState) {
		t.Fatalf("target restored %q, want %q", got, wantState)
	}
	if r.BackendFor(epc) != "b:1" {
		t.Fatalf("EPC still routed to %s after drain", r.BackendFor(epc))
	}
	if st := r.Membership().Members[0].State; st != StateDraining {
		t.Fatalf("a:1 state = %v, want draining", st)
	}

	// New samples flow to the target; nothing new reaches the drained
	// shard.
	n := len(stubs["a:1"].samples())
	if err := r.Dispatch(ctx, reader.Sample{EPC: epc, T: 99}); err != nil {
		t.Fatal(err)
	}
	if len(stubs["a:1"].samples()) != n {
		t.Fatal("drained backend still receives samples")
	}
	if got := stubs["b:1"].samples(); len(got) == 0 || got[len(got)-1].T != 99 {
		t.Fatalf("target did not receive the post-drain sample: %v", got)
	}

	// A draining member takes no NEW EPCs either: every fresh EPC's
	// winner must be the active backend.
	for i := 0; i < 32; i++ {
		fresh := fmt.Sprintf("fresh-%02d", i)
		if r.BackendFor(fresh) != "b:1" {
			t.Fatalf("fresh EPC %s routed to the draining backend", fresh)
		}
	}
	if lost := r.Journal().Lost(); lost != 0 {
		t.Fatalf("journal lost %d samples across a drain", lost)
	}
}

// TestRouterAllUnhealthyFailFast is the regression for the open
// circuit: with every backend unhealthy, Dispatch must fail fast with
// the typed ErrBackendUnavailable — without touching dead transports
// or double-journaling — and the half-open trial must let the cluster
// recover and keep routing correctly afterwards.
func TestRouterAllUnhealthyFailFast(t *testing.T) {
	oldEvery := halfOpenEvery
	halfOpenEvery = time.Hour
	defer func() { halfOpenEvery = oldEvery }()

	ctx := context.Background()
	nbs, stubs := namedStubs("a:1", "b:1")
	r := NewRouter(nbs)
	r.SetJournal(NewMemJournal(0))

	epcA := epcOwnedBy(t, r, "a:1")
	epcB := epcOwnedBy(t, r, "b:1")
	for _, epc := range []string{epcA, epcB} {
		if err := r.Dispatch(ctx, reader.Sample{EPC: epc, T: 1}); err != nil {
			t.Fatal(err)
		}
	}

	stubs["a:1"].setFail(errors.New("a down"))
	stubs["b:1"].setFail(errors.New("b down"))
	tripDown(ctx, t, r, epcA, unhealthyAfter)
	tripDown(ctx, t, r, epcB, unhealthyAfter)
	if h, u := r.HealthCounts(); u != 2 {
		t.Fatalf("healthy=%d unhealthy=%d, want 0/2", h, u)
	}

	// Consume each backend's half-open trial so the loop below hits
	// the pure fast path.
	_ = r.Dispatch(ctx, reader.Sample{EPC: epcA, T: 40})
	_ = r.Dispatch(ctx, reader.Sample{EPC: epcB, T: 41})

	aN, bN := len(stubs["a:1"].samples()), len(stubs["b:1"].samples())
	dropped := r.Dropped()
	for i := 0; i < 10; i++ {
		err := r.Dispatch(ctx, reader.Sample{EPC: epcA, T: 50 + float64(i)})
		if !errors.Is(err, ErrBackendUnavailable) {
			t.Fatalf("open-circuit dispatch returned %v, want ErrBackendUnavailable", err)
		}
	}
	if len(stubs["a:1"].samples()) != aN || len(stubs["b:1"].samples()) != bN {
		t.Fatal("fast-failed dispatch reached a dead backend")
	}
	if got := r.Dropped() - dropped; got != 10 {
		t.Fatalf("dropped counter advanced by %d, want 10", got)
	}

	// Recovery: backends come back; with the trial interval compressed
	// to zero every dispatch is a trial, and healthyAfter successes
	// close the circuit for the backend taking the traffic. (a:1's own
	// streak recovers via the heartbeat in production; its routes
	// failed over to b:1 here, so call traffic cannot reach it — that
	// is the point of the pin.)
	halfOpenEvery = 0
	stubs["a:1"].setFail(nil)
	stubs["b:1"].setFail(nil)
	for i := 0; i < healthyAfter+1; i++ {
		_ = r.Dispatch(ctx, reader.Sample{EPC: epcB, T: 100 + float64(i)})
	}
	waitFor(t, "circuit to close", func() bool {
		h, _ := r.HealthCounts()
		return h >= 1
	})

	// Re-pin correctness: epcA failed over to b:1 when a:1 died — its
	// post-recovery samples must keep landing there (that is where its
	// decode state went), and a fresh EPC whose rendezvous winner is
	// the still-unhealthy a:1 must be migrated-and-pinned to the
	// healthy runner-up rather than dispatched into the dead shard.
	if err := r.Dispatch(ctx, reader.Sample{EPC: epcA, T: 200}); err != nil {
		t.Fatalf("post-recovery dispatch: %v", err)
	}
	if owner := r.BackendFor(epcA); owner != "b:1" {
		t.Fatalf("epcA owner after failover = %q, want b:1", owner)
	}
	got := stubs["b:1"].samples()
	if len(got) == 0 || got[len(got)-1].T != 200 {
		t.Fatal("post-recovery sample did not land on the pinned owner b:1")
	}
	freshA := epcOwnedBy(t, r, "a:1")
	if err := r.Dispatch(ctx, reader.Sample{EPC: freshA, T: 201}); err != nil {
		t.Fatalf("fresh-EPC dispatch during partial recovery: %v", err)
	}
	if owner := r.BackendFor(freshA); owner != "b:1" {
		t.Fatalf("fresh EPC pinned to %q, want the healthy b:1", owner)
	}
}

// stallPing is a probeable backend whose Ping wedges until released —
// the pathological transport the per-probe timeout exists for.
type stallPing struct {
	stubBackend
	release chan struct{}
	stalls  sync.WaitGroup
}

func (p *stallPing) Ping(context.Context) error {
	p.stalls.Add(1)
	defer p.stalls.Done()
	<-p.release
	return nil
}

// TestRouterProbeTimeoutIsolatesStall: one wedged backend must go
// unhealthy at the probe deadline while probes of its peers keep
// flowing — the stall cannot wedge the whole heartbeat.
func TestRouterProbeTimeoutIsolatesStall(t *testing.T) {
	good := &pingableStub{}
	stuck := &stallPing{release: make(chan struct{})}
	r := NewRouter([]NamedBackend{
		{Name: "good:1", Backend: good},
		{Name: "stuck:1", Backend: stuck},
	})
	r.SetProbeTimeout(10 * time.Millisecond)
	r.StartHeartbeat(5 * time.Millisecond)
	defer func() {
		close(stuck.release) // un-wedge so StopHeartbeat's wait returns
		r.StopHeartbeat()
	}()

	waitFor(t, "stalled backend to go unhealthy", func() bool {
		for _, h := range r.Health() {
			if h.Name == "stuck:1" && !h.Healthy && h.PingFails >= uint64(unhealthyAfter) {
				return true
			}
		}
		return false
	})
	before := good.pingCount()
	waitFor(t, "healthy backend probes to keep flowing", func() bool {
		return good.pingCount() > before+2
	})
	for _, h := range r.Health() {
		if h.Name == "good:1" && !h.Healthy {
			t.Fatal("healthy backend went unhealthy under a peer's stall")
		}
	}
}

// TestRouterSlowSubscriberShedsNotBlocks pins the slow-consumer
// contract on the router's merged stream: a subscriber that stops
// reading loses events (counted) instead of stalling dispatch, and
// starts receiving again once it catches up.
func TestRouterSlowSubscriberShedsNotBlocks(t *testing.T) {
	ctx := context.Background()
	samples, _, ants := penStreams(t, 1, 43)
	lb := NewLocalBackend(Config{Tracker: core.Config{Antennas: ants}, EventBuffer: 1}, nil)
	r := NewRouter([]NamedBackend{{Name: "shard-0", Backend: lb}})
	r.SetEventBuffer(1)

	events, cancel := r.Subscribe(ctx)
	defer cancel()

	// Dispatch most of the stream while the subscriber reads nothing:
	// with a 1-slot buffer nearly every event must shed, and dispatch
	// must complete regardless (a deadlock here fails on test timeout).
	head := samples[:len(samples)*4/5]
	tail := samples[len(samples)*4/5:]
	done := make(chan error, 1)
	go func() {
		for _, smp := range head {
			if err := r.Dispatch(ctx, smp); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("dispatch blocked behind a slow subscriber")
	}
	waitFor(t, "events shed at the full buffer", func() bool {
		return r.EventsDropped() > 0
	})

	// Catch up: read actively from now on. The first publish into the
	// drained buffer must reach us — a slow consumer's penalty is the
	// backlog it slept through, not the stream's future.
	caught := make(chan Event, 1)
	go func() {
		for ev := range events {
			select {
			case caught <- ev:
			default:
			}
		}
	}()
	for _, smp := range tail {
		if err := r.Dispatch(ctx, smp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Finalize(ctx, samples[0].EPC); err != nil {
		t.Fatal(err)
	}
	select {
	case <-caught:
		// delivery resumed after catch-up
	case <-time.After(5 * time.Second):
		t.Fatal("no events delivered after the subscriber caught up")
	}
}

// TestRouterAdmissionBudgets covers the two admission axes directly:
// the per-backend in-flight budget and the token-bucket rate, both
// shedding with the typed ErrOverloaded before the journal sees the
// sample.
func TestRouterAdmissionBudgets(t *testing.T) {
	ctx := context.Background()

	t.Run("rate", func(t *testing.T) {
		nbs, stubs := namedStubs("a:1")
		r := NewRouter(nbs)
		j := NewMemJournal(0)
		r.SetJournal(j)
		r.SetAdmission(AdmissionConfig{Rate: 1, Burst: 2})
		var shed int
		for i := 0; i < 10; i++ {
			err := r.Dispatch(ctx, reader.Sample{EPC: "pen-1", T: float64(i)})
			if errors.Is(err, ErrOverloaded) {
				shed++
			} else if err != nil {
				t.Fatal(err)
			}
		}
		if shed != 8 {
			t.Fatalf("shed %d of 10 at burst 2, want 8", shed)
		}
		if r.Shed() != uint64(shed) {
			t.Fatalf("Shed() = %d, want %d", r.Shed(), shed)
		}
		if got := len(stubs["a:1"].samples()); got != 2 {
			t.Fatalf("backend saw %d samples, want 2", got)
		}
		// Shed samples never reach the journal: a replay would
		// otherwise re-deliver traffic the caller was told to retry.
		if replayed := len(j.Replay("pen-1", 0)); replayed != 2 {
			t.Fatalf("journal holds %d samples, want 2 admitted", replayed)
		}
	})

	t.Run("inflight", func(t *testing.T) {
		block := make(chan struct{})
		slow := &blockingStub{release: block}
		r := NewRouter([]NamedBackend{{Name: "a:1", Backend: slow}})
		r.SetAdmission(AdmissionConfig{MaxInFlight: 1})

		started := make(chan struct{})
		go func() {
			close(started)
			_ = r.Dispatch(ctx, reader.Sample{EPC: "pen-1", T: 1})
		}()
		<-started
		waitFor(t, "first dispatch to occupy the budget", func() bool {
			return slow.inCall()
		})
		err := r.Dispatch(ctx, reader.Sample{EPC: "pen-1", T: 2})
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("over-budget dispatch returned %v, want ErrOverloaded", err)
		}
		close(block)
		waitFor(t, "budget to free after completion", func() bool {
			return r.Dispatch(ctx, reader.Sample{EPC: "pen-1", T: 3}) == nil
		})
	})
}

// blockingStub parks Dispatch until released, to hold in-flight budget.
type blockingStub struct {
	stubBackend
	release chan struct{}
	mu      sync.Mutex
	calls   int
}

func (b *blockingStub) inCall() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.calls > 0
}

func (b *blockingStub) Dispatch(ctx context.Context, smp reader.Sample) error {
	b.mu.Lock()
	b.calls++
	b.mu.Unlock()
	<-b.release
	return b.stubBackend.Dispatch(ctx, smp)
}

// TestMembershipJoinDoesNotForkStrokes pins the join-stability rule: a
// new active member shifts rendezvous winners, but live strokes stay
// pinned where their decode state lives until they end.
func TestMembershipJoinDoesNotForkStrokes(t *testing.T) {
	ctx := context.Background()
	nbs, stubs := namedStubs("a:1", "b:1")
	r := NewRouter(nbs)
	r.SetJournal(NewMemJournal(0))
	r.SetDialer(func(name, addr string) (ShardBackend, error) { return &stubBackend{}, nil })

	// Open strokes everywhere, then join a third shard: every live EPC
	// must keep its owner.
	epcs := make([]string, 16)
	owners := make(map[string]string, len(epcs))
	for i := range epcs {
		epcs[i] = fmt.Sprintf("pen-%04d", i)
		if err := r.Dispatch(ctx, reader.Sample{EPC: epcs[i], T: 1}); err != nil {
			t.Fatal(err)
		}
		owners[epcs[i]] = r.BackendFor(epcs[i])
	}
	if err := r.ApplyMembership(ctx, Membership{Epoch: 1, Members: []Member{
		{Name: "a:1"}, {Name: "b:1"}, {Name: "c:1"},
	}}); err != nil {
		t.Fatal(err)
	}
	for _, epc := range epcs {
		if got := r.BackendFor(epc); got != owners[epc] {
			t.Fatalf("%s re-routed %s -> %s across a join without migration", epc, owners[epc], got)
		}
		if err := r.Dispatch(ctx, reader.Sample{EPC: epc, T: 2}); err != nil {
			t.Fatal(err)
		}
	}
	// Both old shards saw their own EPCs' second samples.
	for name, stub := range stubs {
		for _, smp := range stub.samples() {
			if owners[smp.EPC] != name {
				t.Fatalf("sample for %s landed on %s, owner %s", smp.EPC, name, owners[smp.EPC])
			}
		}
	}
}

// TestErrorsRoundTripNewCodes would live in shardrpc; here we only pin
// that the sentinels exist and are distinct.
func TestOverloadedAndStaleEpochSentinels(t *testing.T) {
	if errors.Is(ErrOverloaded, ErrStaleEpoch) || errors.Is(ErrStaleEpoch, ErrOverloaded) {
		t.Fatal("sentinels alias each other")
	}
	if !strings.Contains(ErrOverloaded.Error(), "overloaded") {
		t.Fatalf("ErrOverloaded text %q", ErrOverloaded)
	}
}
