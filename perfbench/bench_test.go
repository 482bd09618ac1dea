package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
	"time"

	"polardraw"
	"polardraw/internal/core"
	"polardraw/internal/geom"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.99); !errors.Is(err, errFewSamples) {
		t.Fatalf("p99 of 999 samples: err = %v, want errFewSamples", err)
	}
	xs = append(xs, 1000)
	v, err := percentile(xs, 0.99)
	if err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(xs[:19], 0.5); !errors.Is(err, errFewSamples) {
		t.Fatalf("p50 of 19 samples: err = %v, want errFewSamples", err)
	}
	if v, err := percentile(xs[:20], 0.5); err != nil || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
}

func TestSeriesPoolsKeptIntervals(t *testing.T) {
	var s series
	for i := 0; i < 4; i++ {
		s.add(time.Duration(i)*intervalLen+intervalLen/2, float64(i))
	}
	if got := s.pooled(map[int]bool{1: true, 3: true}); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("pooled(1, 3) = %v, want [1 3]", got)
	}
	if got := s.pooled(nil); len(got) != 4 {
		t.Fatalf("pooled(nil) = %v, want all 4 values", got)
	}
}

func TestQuietestSkipsEdgesAndStolenIntervals(t *testing.T) {
	// 2 start-up intervals, 15 steady ones, and the drain.
	steal := []float64{0, 0}
	for i := 0; i < 15; i++ {
		steal = append(steal, float64(15-i)/100)
	}
	steal = append(steal, 0)
	got := quietest(steal, 2)
	if len(got) != 5 {
		t.Fatalf("quietest kept %d intervals, want 5: %v", len(got), got)
	}
	for i := 12; i <= 16; i++ {
		if !got[i] {
			t.Fatalf("quietest = %v, want intervals 12..16", got)
		}
	}
	if quietest(steal[:10], 2) != nil {
		t.Fatal("too few intervals to choose from should keep every interval")
	}
}

// With no steal at all every interval ties; the kept ones must still
// span the whole run rather than bunch at its start.
func TestQuietestSpreadsTiesOverRun(t *testing.T) {
	steal := make([]float64, 100) // 8 start-up, 91 steady, the drain
	got := quietest(steal, 8)
	if len(got) != 31 {
		t.Fatalf("quietest kept %d intervals, want 31", len(got))
	}
	// Every tenth of the steady run keeps at least one interval.
	for lo := 8; lo < 98; lo += 9 {
		n := 0
		for i := lo; i < lo+9; i++ {
			if got[i] {
				n++
			}
		}
		if n == 0 {
			t.Fatalf("no interval kept in %d..%d: %v", lo, lo+8, got)
		}
	}
	if got[99] {
		t.Fatal("drain interval kept")
	}
}

// oneStroke decodes one letter's reference and wraps it in a one-pen
// schedule.
func oneStroke(t *testing.T) (rig, *schedule) {
	t.Helper()
	rg := newRig()
	b, err := rg.synth('S', 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := decodeReferences(rg.ants, []*baseStroke{b}); err != nil {
		t.Fatal(err)
	}
	epc := penEPC(0xe2801190, 0)
	return rg, &schedule{
		pens:    []penSpec{{epc: epc, strokes: []int{0}}},
		strokes: []stroke{{base: b, end: b.dur}},
		bases:   []*baseStroke{b},
		penIdx:  map[string]int{epc: 0},
		samples: len(b.samples),
	}
}

// The loadgen p999 artifact came from timing the events Finalize
// flushes at pen-up from a sample dispatched seconds earlier. The
// classifier must time exactly the events samples triggered.
func TestFlushEventsUntimed(t *testing.T) {
	rg, sched := oneStroke(t)
	b := sched.strokes[0].base

	// Count the reference's events by what triggered them.
	var pushPoints, pushCommits, flushPoints, flushCommits int
	flushing := false
	st := core.New(servingConfig(rg.ants)).Stream()
	st.OnWindow = func(core.Window, geom.Vec2) {
		if flushing {
			flushPoints++
		} else {
			pushPoints++
		}
	}
	st.OnCommit = func(int, geom.Polyline) {
		if flushing {
			flushCommits++
		} else {
			pushCommits++
		}
	}
	if err := st.Push(b.samples...); err != nil {
		t.Fatal(err)
	}
	flushing = true
	if _, err := st.Finalize(); err != nil {
		t.Fatal(err)
	}
	if flushPoints == 0 || flushCommits == 0 || pushCommits == 0 {
		t.Fatalf("stroke too short to test: %d/%d sample-triggered, %d/%d flush points/commits",
			pushPoints, pushCommits, flushPoints, flushCommits)
	}

	// Stream the stroke through a real tier and classify what arrives.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	c, err := polardraw.Open(ctx, append(commonOptions(rg.ants), polardraw.WithShards(1), polardraw.WithEventBuffer(eventBuffer))...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(ctx)
	events, stop := c.Subscribe(ctx)
	defer stop()
	epc := sched.pens[0].epc
	if err := c.OpenSession(ctx, epc); err != nil {
		t.Fatal(err)
	}
	batch := append([]polardraw.Sample(nil), b.samples...)
	for i := range batch {
		batch[i].EPC = epc
	}
	if err := c.DispatchBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if err := awaitReceived(ctx, c, epc, len(batch), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Finalize(ctx, epc); err != nil {
		t.Fatal(err)
	}
	cls := newClassifier(sched, make([]penState, 1))
	var timedPoints, timedCommits, untimed int
	for ev := range events {
		_, ok := cls.timed(ev)
		switch {
		case ev.Kind == polardraw.EventEvict:
		case !ok && (ev.Kind == polardraw.EventPoint || ev.Kind == polardraw.EventCommit):
			untimed++
		case ok && ev.Kind == polardraw.EventPoint:
			timedPoints++
		case ok && ev.Kind == polardraw.EventCommit:
			timedCommits++
		}
		if ev.Kind == polardraw.EventEvict {
			break
		}
	}
	if timedPoints != pushPoints || timedCommits != pushCommits || untimed != flushPoints+flushCommits {
		t.Fatalf("timed %d points, %d commits, untimed %d; want %d, %d, %d",
			timedPoints, timedCommits, untimed, pushPoints, pushCommits, flushPoints+flushCommits)
	}

	// A catch-up commit replaying the prefix after a restore is not
	// timed either.
	cls = newClassifier(sched, make([]penState, 1))
	first := polardraw.Event{Kind: polardraw.EventCommit, EPC: epc, CommitStart: 0, Segment: make(geom.Polyline, 3)}
	if _, ok := cls.timed(first); !ok {
		t.Fatal("first commit not timed")
	}
	replay := polardraw.Event{Kind: polardraw.EventCommit, EPC: epc, CommitStart: 0, Segment: make(geom.Polyline, 5)}
	if _, ok := cls.timed(replay); ok {
		t.Fatal("catch-up commit timed")
	}
	// A commit past the windows committed so far (the ones before it
	// were shed) is timed and counted as a gap, and the stream resumes
	// from it.
	skip := polardraw.Event{Kind: polardraw.EventCommit, EPC: epc, CommitStart: 7, Segment: make(geom.Polyline, 2)}
	if _, ok := cls.timed(skip); !ok || cls.gaps != 1 {
		t.Fatalf("commit after a gap: timed %v, gaps %d; want timed, 1 gap", ok, cls.gaps)
	}
	next := polardraw.Event{Kind: polardraw.EventCommit, EPC: epc, CommitStart: 9, Segment: make(geom.Polyline, 2)}
	if _, ok := cls.timed(next); !ok || cls.gaps != 1 {
		t.Fatalf("commit after the resync: timed %v, gaps %d; want timed, 1 gap", ok, cls.gaps)
	}
}

// A stroke that comes due before its session is open is held, not
// waited for: its samples reach the session, in order, once the
// lifecycle worker opens it.
func TestHeldStrokeDispatchedOnOpen(t *testing.T) {
	rg, sched := oneStroke(t)
	b := sched.strokes[0].base
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	c, err := polardraw.Open(ctx, append(commonOptions(rg.ants), polardraw.WithShards(1))...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(ctx)

	pens := make([]penState, 1)
	pens[0].opened.Store(-1) // the session is not open yet
	var h holds
	if err := pens[0].begin(0, &h); err != nil || !pens[0].holding.Load() {
		t.Fatalf("begin before open: err %v, holding %v; want held", err, pens[0].holding.Load())
	}
	if err := pens[0].begin(1, &h); err == nil {
		t.Fatal("a second stroke due while the first is held was accepted")
	}
	epc := sched.pens[0].epc
	batch := append([]polardraw.Sample(nil), b.samples...)
	for i := range batch {
		batch[i].EPC = epc
	}
	half := len(batch) / 2
	for _, part := range [][]polardraw.Sample{batch[:half], batch[half:]} {
		if rest := divert(sched, pens, part, &h); len(rest) != 0 {
			t.Fatalf("divert passed %d samples of a held pen through", len(rest))
		}
	}
	if h.strokes.Load() != 1 || h.samples.Load() != int64(len(batch)) {
		t.Fatalf("held %d strokes, %d samples; want 1, %d", h.strokes.Load(), h.samples.Load(), len(batch))
	}

	o := &ops{}
	if err := c.OpenSession(ctx, epc); err != nil {
		t.Fatal(err)
	}
	pens[0].open(ctx, c, 0, &h, o)
	if pens[0].holding.Load() || h.active.Load() != 0 || pens[0].opened.Load() != 0 || o.failed.Load() != 0 {
		t.Fatalf("after open: holding %v, active %d, opened %d, failed %d",
			pens[0].holding.Load(), h.active.Load(), pens[0].opened.Load(), o.failed.Load())
	}
	if err := awaitReceived(ctx, c, epc, len(batch), nil); err != nil {
		t.Fatal(err)
	}
	res, err := c.Finalize(ctx, epc)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResult(res, b.ref); err != nil {
		t.Fatal(err)
	}
}

func TestGateRejectsPerturbedTrajectory(t *testing.T) {
	_, sched := oneStroke(t)
	ref := sched.bases[0].ref
	same := *ref
	same.Trajectory = append(geom.Polyline(nil), ref.Trajectory...)
	if err := checkResult(&same, ref); err != nil {
		t.Fatalf("identical copy rejected: %v", err)
	}
	bent := same
	bent.Trajectory = append(geom.Polyline(nil), ref.Trajectory...)
	i := len(bent.Trajectory) / 2
	bent.Trajectory[i].X = math.Nextafter(bent.Trajectory[i].X, math.Inf(1))
	if err := checkResult(&bent, ref); err == nil {
		t.Fatal("trajectory one ulp off accepted")
	}
	if err := checkResult(nil, ref); err == nil {
		t.Fatal("missing result accepted")
	}

	o := &ops{}
	gate(&runStats{lost: 1, samples: int64(sched.samples), trackErrs: []float64{1}}, sched, o)
	if o.failed.Load() != 1 {
		t.Fatalf("lost sample: %d failures, want 1", o.failed.Load())
	}
	o = &ops{}
	gate(&runStats{samples: int64(sched.samples)}, sched, o)
	if o.failed.Load() != 1 {
		t.Fatalf("unfinalized stroke: %d failures, want 1", o.failed.Load())
	}
	o = &ops{}
	gate(&runStats{dropped: 1, commitGaps: 1, samples: int64(sched.samples), trackErrs: []float64{1}}, sched, o)
	if o.failed.Load() != 2 {
		t.Fatalf("dropped event and commit gap: %d failures, want 2", o.failed.Load())
	}
}

// TestOutputListsEveryMetric checks that both output modes list every
// metric the benchmark defines, with its unit, and that BENCHMARK.json
// declares the same metrics.
func TestOutputListsEveryMetric(t *testing.T) {
	wantE2E := map[string]string{
		"setup_s": "s", "point_p50_ms": "ms", "commit_p50_ms": "ms", "commit_p90_ms": "ms",
		"finalize_p50_ms": "ms", "cpu_us_per_sample": "us", "peak_rss_mb": "MiB", "track_err_cm": "cm",
	}
	wantLayer := map[string]string{
		"llrp.decode_ns_per_sample": "ns", "llrp.bytes_per_sample": "B",
		"router.dispatch_ns_per_sample": "ns", "router.dispatch_block_p99_ms": "ms", "router.shard_skew": "ratio",
		"journal.append_ns_per_sample": "ns", "journal.checkpoint_us_p50": "us", "journal.bytes_per_sample": "B",
		"shardrpc.tx_bytes_per_sample": "B", "shardrpc.rx_bytes_per_event": "B",
		"shardrpc.writes_per_sample": "count", "shardrpc.reads_per_sample": "count",
		"session.queue_depth_max": "count", "hub.events_per_sample": "count", "hub.events_dropped": "count",
		"core.push_us_per_sample": "us", "core.window_us_p50": "us", "core.window_us_p99": "us",
		"core.allocs_per_sample": "count", "core.alloc_bytes_per_sample": "B", "core.stencil_hit_ratio": "ratio",
		"core.snapshot_us": "us", "core.snapshot_bytes": "B", "core.finalize_ms": "ms",
		"migration.handoff_ms_p50": "ms", "migration.handoff_ms_p90": "ms", "migration.bystander_commit_p90_ms": "ms",
		"runtime.gc_pause_ms_per_s": "ms/s", "runtime.gc_cpu_fraction": "ratio",
		"gen.late_p99_ms": "ms", "trace.overhead_cpu_us_per_sample": "us",
	}
	for _, l := range traceLayers {
		wantLayer["self."+l+"_us_per_sample"] = "us"
	}

	rs := &runStats{samples: 1, elapsed: time.Second}
	p := pctReporter{o: &ops{}, counts: map[string]int{}}
	checkUnits(t, "end-to-end output", endToEnd(rs, []float64{1}, p), wantE2E)
	checkUnits(t, "per-layer output", perLayer(rs, rs, &coreStats{samples: 1}, nil, p), wantLayer)

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	declared := func(ms []struct{ Name, Unit string }) map[string]metric {
		out := map[string]metric{}
		for _, m := range ms {
			out[m.Name] = metric{Unit: m.Unit}
		}
		return out
	}
	checkUnits(t, "BENCHMARK.json end_to_end", declared(bj.EndToEnd), wantE2E)
	checkUnits(t, "BENCHMARK.json per_layer", declared(bj.PerLayer), wantLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %q, want %q", i, w.Name, workloads[i].name)
		}
	}
}

func checkUnits(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: missing %s", what, name)
		case m.Unit != unit:
			t.Errorf("%s: %s in %q, want %q", what, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: unexpected metric %s", what, name)
		}
	}
}
