package chaos

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"polardraw/internal/core"
	"polardraw/internal/font"
	"polardraw/internal/geom"
	"polardraw/internal/motion"
	"polardraw/internal/reader"
	"polardraw/internal/rf"
	"polardraw/internal/session"
	"polardraw/internal/tag"
)

// penStreams simulates n pens writing concurrently over one reader and
// returns the mixed time-ordered sample stream (the same harness the
// session suite uses; duplicated here because test helpers don't cross
// package boundaries).
func penStreams(t testing.TB, n int, seed uint64) ([]reader.Sample, [2]rf.Antenna) {
	t.Helper()
	rig := motion.DefaultRig()
	ants := rig.Antennas()
	ch := &rf.Channel{Reflectors: rf.OfficeReflectors(rig.BoardW)}
	tag.AD227(1).ApplyTo(ch)

	letters := []rune{'A', 'C', 'M', 'S', 'Z', 'O', 'W', 'H'}
	scenes := make([]reader.TaggedScene, 0, n)
	for k := 0; k < n; k++ {
		r := letters[k%len(letters)]
		g, ok := font.Lookup(r)
		if !ok {
			t.Fatalf("no glyph %c", r)
		}
		path := g.Path().Scale(0.18).Translate(geom.Vec2{X: 0.18, Y: 0.03})
		sess := motion.Write(path, string(r), motion.Config{Seed: seed + uint64(k)})
		epc := tag.AD227(uint32(k + 1)).EPC
		scenes = append(scenes, reader.TaggedScene{EPC: epc, Scene: sess})
	}
	rd := reader.New(reader.Config{Antennas: ants[:], Channel: ch, EPC: "", Seed: seed})
	return rd.MultiInventory(scenes), ants
}

// trackerCfg widens the window so six pens sharing one reader all
// stay above the per-antenna validity threshold (see the sharded
// suite). The batch reference must use the same config bit-for-bit.
func trackerCfg(ants [2]rf.Antenna) core.Config {
	return core.Config{Antennas: ants, Window: 0.2}
}

// localRouter builds a router over n in-process backends named
// shard-0..n-1 with a memory journal attached.
func localRouter(ants [2]rf.Antenna, n int) (*session.Router, []string) {
	names := make([]string, n)
	nbs := make([]session.NamedBackend, n)
	for i := range nbs {
		names[i] = fmt.Sprintf("shard-%d", i)
		nbs[i] = session.NamedBackend{
			Name:    names[i],
			Backend: session.NewLocalBackend(session.Config{Tracker: trackerCfg(ants)}, nil),
		}
	}
	r := session.NewRouter(nbs)
	r.SetJournal(session.NewMemJournal(0))
	return r, names
}

// localDialer joins fresh in-process backends for membership adds.
func localDialer(ants [2]rf.Antenna) func(name, addr string) (session.ShardBackend, error) {
	return func(name, addr string) (session.ShardBackend, error) {
		return session.NewLocalBackend(session.Config{Tracker: trackerCfg(ants)}, nil), nil
	}
}

// assertIdentical requires that every pen's committed trajectory is
// bit-identical to batch-tracking that pen's own sub-stream — the
// zero-divergence bar every chaos scenario must clear.
func assertIdentical(t *testing.T, got map[string]*core.Result, samples []reader.Sample, ants [2]rf.Antenna) {
	t.Helper()
	perEPC := reader.SplitByEPC(samples)
	if len(got) != len(perEPC) {
		t.Fatalf("results for %d pens, want %d", len(got), len(perEPC))
	}
	batch := core.New(trackerCfg(ants))
	for epc, res := range got {
		want, err := batch.Track(perEPC[epc])
		if err != nil {
			t.Fatalf("batch track %s: %v", epc, err)
		}
		if !reflect.DeepEqual(res.Trajectory, want.Trajectory) {
			t.Fatalf("%s: committed trajectory diverged from the batch reference (%d vs %d points)",
				epc, len(res.Trajectory), len(want.Trajectory))
		}
	}
}

// active builds an all-active membership over the named backends.
func active(epoch uint64, names ...string) session.Membership {
	m := session.Membership{Epoch: epoch}
	for _, n := range names {
		m.Members = append(m.Members, session.Member{Name: n})
	}
	return m
}

// TestScenarioDrainUnderLoad removes a loaded shard mid-stroke via a
// membership epoch: every session it served must migrate and the final
// trajectories must match the batch reference exactly, with nothing
// lost and the emptied shard gone from the table.
func TestScenarioDrainUnderLoad(t *testing.T) {
	ctx := context.Background()
	samples, ants := penStreams(t, 6, 21)
	r, names := localRouter(ants, 3)

	half := len(samples) / 2
	for _, smp := range samples[:half] {
		if err := r.Dispatch(ctx, smp); err != nil {
			t.Fatal(err)
		}
	}

	// Remove the shard that owns the first pen — guaranteed loaded.
	victim := r.BackendFor(samples[0].EPC)
	var keep []string
	for _, n := range names {
		if n != victim {
			keep = append(keep, n)
		}
	}
	if err := r.ApplyMembership(ctx, active(2, keep...)); err != nil {
		t.Fatalf("drain epoch: %v", err)
	}
	for _, n := range r.Backends() {
		if n == victim {
			t.Fatalf("%s still in the table after its drain", victim)
		}
	}
	if r.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", r.Epoch())
	}

	// The rest of the stroke flows to the migrated owners.
	for _, smp := range samples[half:] {
		if err := r.Dispatch(ctx, smp); err != nil {
			t.Fatal(err)
		}
	}
	results, err := r.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, results, samples, ants)
}

// TestScenarioMembershipFlap joins and removes a shard repeatedly while
// pens keep writing, interleaving a stale epoch that must be rejected.
// Live strokes must never re-route without migration: the final
// trajectories are bit-identical to the reference.
func TestScenarioMembershipFlap(t *testing.T) {
	ctx := context.Background()
	samples, ants := penStreams(t, 6, 33)
	r, names := localRouter(ants, 2)
	r.SetDialer(localDialer(ants))

	base := active(0, names...).Members
	withJoiner := append(append([]session.Member(nil), base...), session.Member{Name: "shard-x"})

	chunk := len(samples) / 6
	epoch := uint64(1)
	for i := 0; i < 6; i++ {
		lo, hi := i*chunk, (i+1)*chunk
		if i == 5 {
			hi = len(samples)
		}
		for _, smp := range samples[lo:hi] {
			if err := r.Dispatch(ctx, smp); err != nil {
				t.Fatal(err)
			}
		}
		epoch++
		m := session.Membership{Epoch: epoch, Members: base}
		if i%2 == 0 {
			m.Members = withJoiner // flap in
		}
		if err := r.ApplyMembership(ctx, m); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		// A replay of the previous epoch must bounce.
		stale := session.Membership{Epoch: epoch - 1, Members: base}
		if err := r.ApplyMembership(ctx, stale); !errors.Is(err, session.ErrStaleEpoch) {
			t.Fatalf("stale epoch accepted: %v", err)
		}
	}

	results, err := r.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, results, samples, ants)
}

// TestScenarioPartitionDuringHandoff injects a one-shot restore
// failure into the drain path: the interrupted migration must roll the
// session back to its source (nothing lost, the leaver stays), and a
// later epoch must complete the drain and converge bit-identically.
func TestScenarioPartitionDuringHandoff(t *testing.T) {
	ctx := context.Background()
	samples, ants := penStreams(t, 4, 55)

	in := New(99, Rule{Op: OpRestore, Count: 1, Fault: Fault{Err: errors.New("injected partition")}})
	names := []string{"shard-0", "shard-1", "shard-2"}
	nbs := make([]session.NamedBackend, len(names))
	for i, n := range names {
		lb := session.NewLocalBackend(session.Config{Tracker: trackerCfg(ants)}, nil)
		nbs[i] = session.NamedBackend{Name: n, Backend: Wrap(lb, in)}
	}
	r := session.NewRouter(nbs)
	r.SetJournal(session.NewMemJournal(0))

	half := len(samples) / 2
	for _, smp := range samples[:half] {
		if err := r.Dispatch(ctx, smp); err != nil {
			t.Fatal(err)
		}
	}

	victim := r.BackendFor(samples[0].EPC)
	var keep []string
	for _, n := range names {
		if n != victim {
			keep = append(keep, n)
		}
	}

	// First removal attempt: one migration hits the partition, rolls
	// back, and the leaver refuses to go while it still owns sessions.
	err := r.ApplyMembership(ctx, active(2, keep...))
	if err == nil {
		t.Fatal("drain succeeded through the injected partition")
	}
	if !strings.Contains(err.Error(), "injected partition") {
		t.Fatalf("drain error does not carry the injected fault: %v", err)
	}
	if in.Fired() != 1 {
		t.Fatalf("injector fired %d times, want 1", in.Fired())
	}
	found := false
	for _, n := range r.Backends() {
		found = found || n == victim
	}
	if !found {
		t.Fatalf("%s removed despite its failed drain", victim)
	}

	// The stroke keeps flowing (rolled back to the source) and a later
	// epoch completes the drain.
	mid := half + (len(samples)-half)/2
	for _, smp := range samples[half:mid] {
		if err := r.Dispatch(ctx, smp); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.ApplyMembership(ctx, active(3, keep...)); err != nil {
		t.Fatalf("retry epoch: %v", err)
	}
	for _, n := range r.Backends() {
		if n == victim {
			t.Fatalf("%s still in the table after the retried drain", victim)
		}
	}
	for _, smp := range samples[mid:] {
		if err := r.Dispatch(ctx, smp); err != nil {
			t.Fatal(err)
		}
	}

	results, err := r.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, results, samples, ants)
}

// TestScenarioOverloadSheds drives the router well past its admission
// budget and checks the contract: excess samples shed with the typed
// ErrOverloaded (never queued, never journaled), shed counts match,
// and admitted samples all reach a backend.
func TestScenarioOverloadSheds(t *testing.T) {
	ctx := context.Background()
	samples, ants := penStreams(t, 4, 77)
	r, _ := localRouter(ants, 2)
	r.SetAdmission(session.AdmissionConfig{Rate: 200, Burst: 32})

	var shed, okCount uint64
	for _, smp := range samples {
		err := r.Dispatch(ctx, smp)
		switch {
		case err == nil:
			okCount++
		case errors.Is(err, session.ErrOverloaded):
			shed++
		default:
			t.Fatalf("unexpected dispatch error: %v", err)
		}
	}
	if shed == 0 {
		t.Fatal("no samples shed at 2x+ capacity")
	}
	if r.Shed() != shed {
		t.Fatalf("router Shed() = %d, want %d", r.Shed(), shed)
	}
	var dispatched uint64
	for _, h := range r.Health() {
		dispatched += h.Dispatched
		if h.Shed == 0 && h.Dispatched == 0 {
			continue
		}
	}
	if dispatched != okCount {
		t.Fatalf("backends saw %d dispatches, want %d admitted", dispatched, okCount)
	}
	if _, err := r.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestScenarioStallShedsNotBlocks scripts a dispatch stall and checks
// the injected latency honors context cancellation rather than hanging
// the caller.
func TestScenarioStallShedsNotBlocks(t *testing.T) {
	in := New(7, Rule{Op: OpDispatch, Count: 1, Fault: Fault{Stall: 10 * time.Second}})
	_, ants := penStreams(t, 1, 3)
	lb := session.NewLocalBackend(session.Config{Tracker: trackerCfg(ants)}, nil)
	cb := Wrap(lb, in)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := cb.Dispatch(ctx, reader.Sample{EPC: "pen-1", T: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled dispatch returned %v, want deadline exceeded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("stall ignored the context")
	}
	if _, err := cb.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestScenarioDrainReportsFailedRebuild drains a member whose Export
// fails while the target refuses both Open and Dispatch, so the
// journal rebuild fails too. ApplyMembership must report that failure,
// naming the EPC, and leave the route on the draining member, where
// the stroke keeps decoding and converges bit-identically.
func TestScenarioDrainReportsFailedRebuild(t *testing.T) {
	ctx := context.Background()
	samples, ants := penStreams(t, 1, 61)
	epc := samples[0].EPC
	names := []string{"shard-0", "shard-1"}
	locals := make([]session.ShardBackend, len(names))
	probe := make([]session.NamedBackend, len(names))
	for i, n := range names {
		locals[i] = session.NewLocalBackend(session.Config{Tracker: trackerCfg(ants)}, nil)
		probe[i] = session.NamedBackend{Name: n, Backend: locals[i]}
	}
	// Rendezvous placement depends on the names alone: find the pen's
	// owner first, then fault the owner's Export and the target's Open
	// and Dispatch.
	owner := session.NewRouter(probe).BackendFor(epc)
	exportFails := New(1, Rule{Op: OpExport, Fault: Fault{Err: errors.New("injected export failure")}})
	targetFails := New(2,
		Rule{Op: OpOpen, Fault: Fault{Err: errors.New("injected open failure")}},
		Rule{Op: OpDispatch, Fault: Fault{Err: errors.New("injected dispatch failure")}})
	nbs := make([]session.NamedBackend, len(names))
	var target string
	for i, n := range names {
		in := targetFails
		if n == owner {
			in = exportFails
		} else {
			target = n
		}
		nbs[i] = session.NamedBackend{Name: n, Backend: Wrap(locals[i], in)}
	}
	r := session.NewRouter(nbs)
	r.SetJournal(session.NewMemJournal(0))

	if err := r.Open(ctx, epc, session.OpenOptions{}); err != nil {
		t.Fatal(err)
	}
	half := len(samples) / 2
	for _, smp := range samples[:half] {
		if err := r.Dispatch(ctx, smp); err != nil {
			t.Fatal(err)
		}
	}
	err := r.ApplyMembership(ctx, session.Membership{Epoch: 1, Members: []session.Member{
		{Name: owner, State: session.StateDraining}, {Name: target},
	}})
	if err == nil {
		t.Fatal("drain reported success although the rebuild on the target failed")
	}
	if !strings.Contains(err.Error(), epc) {
		t.Fatalf("drain error does not name the EPC %s: %v", epc, err)
	}
	if got := r.BackendFor(epc); got != owner {
		t.Fatalf("EPC routes to %s after the failed drain, want %s", got, owner)
	}
	if exportFails.Fired() == 0 || targetFails.Fired() == 0 {
		t.Fatalf("faults fired: export %d, target %d", exportFails.Fired(), targetFails.Fired())
	}

	for _, smp := range samples[half:] {
		if err := r.Dispatch(ctx, smp); err != nil {
			t.Fatal(err)
		}
	}
	results, err := r.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, results, samples, ants)
}
