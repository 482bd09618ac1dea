package session

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"polardraw/internal/core"
	"polardraw/internal/font"
	"polardraw/internal/geom"
	"polardraw/internal/motion"
	"polardraw/internal/reader"
	"polardraw/internal/rf"
	"polardraw/internal/tag"
)

// penStreams simulates n pens writing concurrently over one reader and
// returns the mixed time-ordered sample stream plus per-EPC truth.
func penStreams(t testing.TB, n int, seed uint64) ([]reader.Sample, map[string]geom.Polyline, [2]rf.Antenna) {
	t.Helper()
	rig := motion.DefaultRig()
	ants := rig.Antennas()
	ch := &rf.Channel{Reflectors: rf.OfficeReflectors(rig.BoardW)}
	tag.AD227(1).ApplyTo(ch)

	letters := []rune{'A', 'C', 'M', 'S', 'Z', 'O', 'W', 'H'}
	scenes := make([]reader.TaggedScene, 0, n)
	truth := make(map[string]geom.Polyline, n)
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
		truth[epc] = sess.Truth
	}
	rd := reader.New(reader.Config{Antennas: ants[:], Channel: ch, EPC: "", Seed: seed})
	return rd.MultiInventory(scenes), truth, ants
}

// TestManagerDemux checks that a mixed N-pen stream dispatched through
// the manager produces, per EPC, exactly the result of batch-tracking
// that EPC's own sub-stream.
func TestManagerDemux(t *testing.T) {
	const pens = 4
	samples, truth, ants := penStreams(t, pens, 7)
	m := NewManager(Config{Tracker: core.Config{Antennas: ants}})

	if err := m.DispatchBatch(samples); err != nil {
		t.Fatal(err)
	}
	if m.Len() != pens {
		t.Fatalf("sessions = %d, want %d", m.Len(), pens)
	}
	results := m.Close()
	if len(results) != pens {
		t.Fatalf("results = %d, want %d", len(results), pens)
	}

	perEPC := reader.SplitByEPC(samples)
	batchTr := core.New(core.Config{Antennas: ants})
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
		if _, ok := truth[epc]; !ok {
			t.Fatalf("unexpected EPC %s", epc)
		}
	}
	if err := m.Dispatch(reader.Sample{EPC: "dead"}); err != ErrClosed {
		t.Fatalf("Dispatch after Close: got %v, want ErrClosed", err)
	}
}

// TestManagerConcurrentDispatch hammers the manager from many
// goroutines (run under -race) and checks conservation of samples.
func TestManagerConcurrentDispatch(t *testing.T) {
	const (
		pens       = 6
		dispatches = 4
	)
	samples, _, ants := penStreams(t, pens, 11)
	m := NewManager(Config{Tracker: core.Config{Antennas: ants}})

	// Shard the stream across dispatcher goroutines. Per-EPC order is
	// not preserved across shards, so late samples may be dropped —
	// the counters must account for every one.
	var wg sync.WaitGroup
	for d := 0; d < dispatches; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for i := d; i < len(samples); i += dispatches {
				if err := m.Dispatch(samples[i]); err != nil {
					t.Errorf("dispatch: %v", err)
					return
				}
			}
		}(d)
	}
	// Concurrent stats polling while dispatching.
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		for i := 0; i < 50; i++ {
			for _, st := range m.Stats() {
				_ = st.Windows
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	<-pollDone

	var received uint64
	for _, st := range m.Stats() {
		received += st.Received
		if st.QueueDropped != 0 {
			t.Errorf("%s: blocking mode must not drop at the queue", st.EPC)
		}
	}
	if received != uint64(len(samples)) {
		t.Fatalf("received %d, want %d", received, len(samples))
	}
	m.Close()
}

// TestBackpressureBlocking verifies that with DropWhenFull unset a full
// queue stalls the dispatcher instead of losing samples.
func TestBackpressureBlocking(t *testing.T) {
	ants := motion.DefaultRig().Antennas()
	m := NewManager(Config{Tracker: core.Config{Antennas: ants}, QueueSize: 4})

	const total = 5000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			smp := reader.Sample{
				T: float64(i) * 0.005, Antenna: i % 2,
				RSS: -50, Phase: 1, EPC: "pen-1",
			}
			if err := m.Dispatch(smp); err != nil {
				t.Errorf("dispatch: %v", err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("dispatcher deadlocked under backpressure")
	}
	st := m.Stats()
	if len(st) != 1 {
		t.Fatalf("sessions = %d, want 1", len(st))
	}
	if st[0].Received != total || st[0].QueueDropped != 0 {
		t.Fatalf("received %d dropped %d, want %d/0", st[0].Received, st[0].QueueDropped, total)
	}
	if _, err := m.Finalize("pen-1"); err != nil {
		t.Fatal(err)
	}
	// All samples must have reached the tracker before finalize.
	if m.Len() != 0 {
		t.Fatalf("sessions = %d after finalize, want 0", m.Len())
	}
}

// TestBackpressureDrop verifies the lossy policy: every dispatch is
// received, a burst far past a 1-slot queue drops and counts some of
// it, and the first sample (into an empty queue) is never dropped.
func TestBackpressureDrop(t *testing.T) {
	ants := motion.DefaultRig().Antennas()
	m := NewManager(Config{
		Tracker:      core.Config{Antennas: ants},
		QueueSize:    1,
		DropWhenFull: true,
	})
	// A burst far larger than the queue: with a 1-slot queue some
	// samples must drop.
	const total = 2000
	for i := 0; i < total; i++ {
		smp := reader.Sample{
			T: float64(i) * 0.005, Antenna: i % 2,
			RSS: -50, Phase: 1, EPC: "pen-d",
		}
		if err := m.Dispatch(smp); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()[0]
	if st.Received != total {
		t.Fatalf("received = %d, want %d", st.Received, total)
	}
	if st.QueueDropped == 0 || st.QueueDropped >= st.Received {
		t.Fatalf("dropped %d of %d received, want 0 < dropped < received", st.QueueDropped, st.Received)
	}
	m.Close()
}

// TestSessionEviction covers the MaxSessions LRU cap and idle eviction.
func TestSessionEviction(t *testing.T) {
	ants := motion.DefaultRig().Antennas()
	m := NewManager(Config{
		Tracker:     core.Config{Antennas: ants},
		MaxSessions: 2,
	})
	ch, cancel := m.SubscribeFiltered(context.Background(),
		SubscribeOptions{Kinds: []EventKind{EventEvict}})
	defer cancel()
	// finalizeSession publishes before it returns, so every eviction
	// is buffered on ch by the time the triggering call is back.
	evicted := map[string]error{}
	drain := func() {
		for {
			select {
			case ev := <-ch:
				evicted[ev.EPC] = ev.Err
			default:
				return
			}
		}
	}

	push := func(epc string, t0 float64) {
		for i := 0; i < 10; i++ {
			_ = m.Dispatch(reader.Sample{
				T: t0 + float64(i)*0.01, Antenna: i % 2,
				RSS: -50, Phase: 1, EPC: epc,
			})
		}
	}
	push("pen-a", 0)
	time.Sleep(5 * time.Millisecond) // order LastActive: a < b
	push("pen-b", 0)
	time.Sleep(5 * time.Millisecond)
	push("pen-c", 0) // exceeds cap: pen-a (LRU) must be evicted

	if m.Len() != 2 {
		t.Fatalf("sessions = %d, want 2", m.Len())
	}
	drain()
	if _, aEvicted := evicted["pen-a"]; !aEvicted {
		t.Fatal("LRU session pen-a was not evicted")
	}

	// Idle eviction: everything is idle relative to a zero cutoff.
	if n := m.EvictIdle(0); n != 2 {
		t.Fatalf("EvictIdle = %d, want 2", n)
	}
	if m.Len() != 0 {
		t.Fatalf("sessions = %d after idle eviction, want 0", m.Len())
	}
	drain()
	if len(evicted) != 3 {
		t.Fatalf("evictions = %d, want 3", len(evicted))
	}

	if _, err := m.Finalize("pen-x"); err != ErrUnknownEPC {
		t.Fatalf("Finalize unknown: got %v, want ErrUnknownEPC", err)
	}
}

// TestManyPensRace runs a larger fleet end to end under the race
// detector: concurrent dispatchers, pollers, and idle evictors.
func TestManyPensRace(t *testing.T) {
	const pens = 8
	samples, _, ants := penStreams(t, pens, 23)
	// Eight pens share the ~100 reads/s aggregate rate, so each pen's
	// per-antenna cadence is ~6 reads/s: the 50 ms single-user window
	// would almost never see both antennas. Multi-user serving uses a
	// proportionally longer averaging window.
	m := NewManager(Config{
		Tracker:   core.Config{Antennas: ants, Window: 0.3},
		QueueSize: 32,
	})

	perEPC := reader.SplitByEPC(samples)
	var wg sync.WaitGroup
	for epc, stream := range perEPC {
		wg.Add(1)
		go func(epc string, stream []reader.Sample) {
			defer wg.Done()
			for _, smp := range stream {
				if err := m.Dispatch(smp); err != nil {
					t.Errorf("%s: %v", epc, err)
					return
				}
			}
		}(epc, stream)
	}
	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.Stats()
				m.EvictIdle(time.Minute) // never fires, but exercises the path
				time.Sleep(500 * time.Microsecond)
			}
		}
	}()
	wg.Wait()
	close(stop)
	pollWG.Wait()

	results := m.Close()
	if len(results) != pens {
		t.Fatalf("results = %d, want %d", len(results), pens)
	}
	for epc, res := range results {
		if len(res.Trajectory) < 2 {
			t.Errorf("%s: degenerate trajectory", epc)
		}
	}
}

func ExampleManager() {
	ants := motion.DefaultRig().Antennas()
	m := NewManager(Config{Tracker: core.Config{Antennas: ants}})
	for i := 0; i < 100; i++ {
		_ = m.Dispatch(reader.Sample{
			T: float64(i) * 0.01, Antenna: i % 2, RSS: -50, Phase: 1, EPC: "pen",
		})
	}
	results := m.Close()
	fmt.Println(len(results), "pen(s) decoded")
	// Output: 1 pen(s) decoded
}
