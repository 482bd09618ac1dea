package session

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"polardraw/internal/core"
	"polardraw/internal/reader"
)

// TestShardedDemuxMatchesBatch pushes a mixed multi-pen stream through
// the sharded tier and requires, per EPC, exactly the batch-track
// result for that EPC's sub-stream — the same contract the flat
// Manager honours, now across shards.
func TestShardedDemuxMatchesBatch(t *testing.T) {
	const pens = 6
	samples, _, ants := penStreams(t, pens, 9)
	sm := NewShardedManager(ShardedConfig{
		// 6 pens share the reader, so widen the window to keep every
		// pen's dual-antenna read rate above the validity threshold.
		Session: Config{Tracker: core.Config{Antennas: ants, Window: 0.2}},
		Shards:  3,
	})
	if got := sm.Shards(); got != 3 {
		t.Fatalf("shards = %d, want 3", got)
	}
	if err := sm.DispatchBatch(context.Background(), samples); err != nil {
		t.Fatal(err)
	}
	results, err := sm.Close(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != pens {
		t.Fatalf("results = %d, want %d", len(results), pens)
	}

	perEPC := reader.SplitByEPC(samples)
	batchTr := sm.Tracker()
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

	if err := sm.Dispatch(context.Background(), samples[0]); err != ErrClosed {
		t.Fatalf("dispatch after close: %v, want ErrClosed", err)
	}
	if res, _ := sm.Close(context.Background()); res != nil {
		t.Fatal("second Close should return nil")
	}
}

// TestShardedStatsAndEviction checks the merged views: Len and Stats
// span shards, stats stay sorted, and idle eviction reaches every
// shard.
func TestShardedStatsAndEviction(t *testing.T) {
	const pens = 5
	samples, _, ants := penStreams(t, pens, 11)
	sm := NewShardedManager(ShardedConfig{
		Session: Config{Tracker: core.Config{Antennas: ants}},
		Shards:  4,
	})
	ch, cancel := sm.SubscribeFiltered(context.Background(),
		SubscribeOptions{Kinds: []EventKind{EventEvict}})
	defer cancel()
	log, done := collect(ch)
	if err := sm.DispatchBatch(context.Background(), samples); err != nil {
		t.Fatal(err)
	}
	// Dispatch enqueues on the caller's goroutine: once it returns,
	// every session exists and EvictIdle below covers every sample.
	if sm.Len() != pens {
		t.Fatalf("sessions = %d, want %d", sm.Len(), pens)
	}
	st, err := sm.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != pens {
		t.Fatalf("stats = %d, want %d", len(st), pens)
	}
	for i := 1; i < len(st); i++ {
		if st[i-1].EPC >= st[i].EPC {
			t.Fatalf("stats unsorted at %d: %s >= %s", i, st[i-1].EPC, st[i].EPC)
		}
	}
	if n, _ := sm.EvictIdle(context.Background(), 0); n != pens {
		t.Fatalf("evicted %d, want %d", n, pens)
	}
	if sm.Len() != 0 {
		t.Fatalf("sessions after eviction = %d", sm.Len())
	}
	sm.Close(context.Background())
	<-done
	if got := log.count(EventEvict); got != pens {
		t.Fatalf("%d Evict events, want %d", got, pens)
	}
}

// TestShardedJoinLeaveRace exercises the sharded tier under the
// conditions the race detector cares about: many pens dispatched
// concurrently from separate goroutines, pens leaving mid-stream via
// Finalize, late pens joining after others finished, and a
// mid-traffic Stats/Len/EvictIdle poller.
func TestShardedJoinLeaveRace(t *testing.T) {
	const pens = 8
	samples, _, ants := penStreams(t, pens, 13)
	perEPC := reader.SplitByEPC(samples)
	if len(perEPC) != pens {
		t.Fatalf("scenario produced %d EPCs, want %d", len(perEPC), pens)
	}
	sm := NewShardedManager(ShardedConfig{
		Session: Config{
			Tracker:     core.Config{Antennas: ants, Window: 0.3},
			EventBuffer: 1 << 12, // never shed: every eviction must arrive
			QueueSize:   64,
		},
		Shards: 3,
	})
	ch, cancel := sm.SubscribeFiltered(context.Background(),
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
				if err := sm.Dispatch(context.Background(), smp); err != nil {
					t.Errorf("dispatch %s: %v", epc, err)
					return
				}
			}
			if i%3 == 0 {
				// Leave mid-stream from the pen's own goroutine: the
				// result covers every sample dispatched so far.
				sm.Finalize(context.Background(), epc)
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
				sm.Len()
				sm.Stats(context.Background())
				sm.EvictIdle(context.Background(), time.Minute)
				sm.Router().Health()
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

	sm.Close(context.Background())
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
// shard (the property per-EPC ordering rests on).
func TestShardStability(t *testing.T) {
	sm := NewShardedManager(ShardedConfig{Shards: 7})
	defer sm.Close(context.Background())
	for _, epc := range []string{"", "a", "E280-1160-6000-0001", "pen-042"} {
		s0 := sm.Router().BackendFor(epc)
		for i := 0; i < 10; i++ {
			if sm.Router().BackendFor(epc) != s0 {
				t.Fatalf("EPC %q moved shards", epc)
			}
		}
	}
}
