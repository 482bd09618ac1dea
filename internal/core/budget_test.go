package core

import (
	"math"
	"runtime"
	"testing"

	"polardraw/internal/geom"
	"polardraw/internal/reader"
	"polardraw/internal/rf"
)

// The budgets below pin the decoder's memory costs at the serving
// config (DefaultBeamTopK, DefaultCommitLag). They are deterministic —
// allocation counts and live bytes, not timings — so they can fail CI
// on a regression. A budget may only tighten; loosening one is a
// deliberate, recorded decision. They skip under -race, whose
// instrumentation changes what they count.

func servingConfig(ants [2]rf.Antenna) Config {
	return Config{Antennas: ants, BeamTopK: DefaultBeamTopK, CommitLag: DefaultCommitLag}
}

// liveHeap returns the live heap after a full collection. Two cycles
// also empty the grid's scratch pool (sync.Pool keeps idle items for
// one extra cycle), so what remains is what the streams hold.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestBudgetStreamRetainedBytes pins the heap each open pen retains
// mid-stroke: streams at the serving config, each 46 windows into a
// letter, measured as the live heap they add. Grid-sized scratch is
// borrowed per step from the grid, so none of it may stay with a pen;
// what remains is the beam records (lag-bounded), the time-0 beam
// cells until the first commit, and the windows.
func TestBudgetStreamRetainedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("memory budgets are pinned without the race detector")
	}
	// Measured 128.6 KB per stream on the 5 mm grid (9,443 cells). A
	// pen holding grid-sized probability and argmax vectors of its own
	// retains about 637 KB, so any of them coming back fails this.
	const budget = 156 << 10
	const streams, windows = 24, 46
	samples, ants := synthSamples(t, 'R', 3)
	tr := New(servingConfig(ants))
	open := func() *StreamTracker {
		st := tr.Stream()
		for _, s := range samples {
			if st.Windows() == windows {
				return st
			}
			if err := st.Push(s); err != nil {
				t.Fatal(err)
			}
		}
		t.Fatalf("letter closed only %d windows", st.Windows())
		return nil
	}
	// Warm the grid's stencil cache, which every stream shares.
	open()
	before := liveHeap()
	sts := make([]*StreamTracker, streams)
	for i := range sts {
		sts[i] = open()
	}
	after := liveHeap()
	runtime.KeepAlive(sts)
	per := (int64(after) - int64(before)) / streams
	t.Logf("retained %d B per stream (budget %d)", per, budget)
	if per > budget {
		t.Fatalf("each open stream retains %d B, budget %d B", per, budget)
	}
}

// steadySample is sample i of an endless synthetic stroke: both
// antennas read every 20 ms, phases drifting slowly, so windows keep
// closing with valid evidence for as long as a test pushes.
func steadySample(i int) reader.Sample {
	tm := float64(i) * 0.01
	return reader.Sample{
		T:       tm,
		Antenna: i % 2,
		RSS:     -50 + 2*math.Sin(tm/3),
		Phase:   geom.WrapAngle(1 + 0.05*tm + 0.02*float64(i%2)),
	}
}

// TestBudgetWindowAllocs pins the allocations of one steady-state
// window close after the first commit: step, prune, beam record and
// commit all reuse pooled or per-pen buffers, so only the amortized
// growth of the window and committed-prefix slices remains.
func TestBudgetWindowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("memory budgets are pinned without the race detector")
	}
	const budget = 0
	const perWindow = 5 // samples per 50 ms window at 10 ms spacing
	const warm, runs = 2 * DefaultCommitLag, 200
	_, ants := synthSamples(t, 'O', 1)
	tr := New(servingConfig(ants))
	push := func(st *StreamTracker, from, to int) {
		for i := from; i < to; i++ {
			if err := st.Push(steadySample(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A first stream over the same samples warms the grid's stencil
	// cache, so the measured stream sees the cache in steady state too.
	total := perWindow * (warm + runs + 2)
	push(tr.Stream(), 0, total)
	st := tr.Stream()
	next := perWindow * warm
	push(st, 0, next)
	if st.vit == nil || st.vit.commitT < 0 {
		t.Fatalf("no commit after %d windows", st.Windows())
	}
	w0 := st.Windows()
	allocs := testing.AllocsPerRun(runs, func() {
		push(st, next, next+perWindow)
		next += perWindow
	})
	if got := st.Windows() - w0; got < runs {
		t.Fatalf("%d windows closed over %d runs", got, runs+1)
	}
	t.Logf("%v allocations per window (budget %d)", allocs, budget)
	if allocs > budget {
		t.Fatalf("a steady-state window close makes %v allocations, budget %d", allocs, budget)
	}
}

// TestBudgetRestoreBytes pins what RestoreStream allocates for a
// mid-stroke serving-config snapshot: the restored state is the
// snapshot's content in memory form, so it may cost at most twice the
// snapshot's bytes. Nothing grid-sized belongs in it — the decoder
// borrows its scratch from the grid on its first step.
func TestBudgetRestoreBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("memory budgets are pinned without the race detector")
	}
	samples, ants := synthSamples(t, 'R', 3)
	tr := New(servingConfig(ants))
	st := tr.Stream()
	if err := st.Push(samples[:len(samples)*3/4]...); err != nil {
		t.Fatal(err)
	}
	snap, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		if _, err := tr.RestoreStream(snap); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	per := (m1.TotalAlloc - m0.TotalAlloc) / runs
	t.Logf("restore of a %d B snapshot (%d windows) allocates %d B", len(snap), st.Windows(), per)
	if budget := 2 * uint64(len(snap)); per > budget {
		t.Fatalf("restoring a %d B snapshot allocates %d B, budget %d B", len(snap), per, budget)
	}
}

// TestBudgetStrokeStartBytes pins what the window close that seeds a
// stroke's decoder allocates. The grid-sized prior vector and the
// prior's support as active cells and scores are borrowed from the
// grid's pools (the support goes back at the first step), so what
// remains is the time-0 beam record, 4 B per support cell, kept until
// the first commit.
func TestBudgetStrokeStartBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("memory budgets are pinned without the race detector")
	}
	samples, ants := synthSamples(t, 'R', 3)
	tr := New(servingConfig(ants))
	// seed pushes samples into a new stream until its decoder has taken
	// steps steps, and returns what the push that seeded it allocated.
	seed := func(steps int) (bytes uint64, support int) {
		st := tr.Stream()
		var m0, m1 runtime.MemStats
		for _, s := range samples {
			runtime.ReadMemStats(&m0)
			if err := st.Push(s); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			if st.vit == nil {
				continue
			}
			if st.vit.steps == 0 && support == 0 {
				bytes, support = m1.TotalAlloc-m0.TotalAlloc, len(st.vit.active)
			}
			if st.vit.steps >= steps {
				return bytes, support
			}
		}
		t.Fatal("the decoder took too few steps")
		return 0, 0
	}
	// A stroke's start and first step fill both pools. sync.Pool keeps
	// items per P and drops them across collections, so one stroke
	// start can still miss them: pin the best of five.
	bytes, support := uint64(math.MaxUint64), 0
	for range 5 {
		seed(1)
		b, s := seed(0)
		bytes, support = min(bytes, b), s
	}
	// Measured 41,736 B for 9,429 cells: 4 B per cell rounded up to the
	// allocator's size class, plus the window. A stroke start that
	// allocates its own prior vector and support (287,472 B) fails
	// this, as does one that allocates either alone.
	budget := uint64(5*support + 8<<10)
	t.Logf("stroke start allocates %d B for a %d-cell support (budget %d)", bytes, support, budget)
	if bytes > budget {
		t.Fatalf("a stroke start allocates %d B, budget %d B", bytes, budget)
	}
}
