// Command perfbench is PolarDraw's benchmark: an open-loop stroke
// workload driven through the public client API, reporting end-to-end
// latency, CPU, memory and accuracy, and (with -trace 1) per-layer
// numbers from a separate traced run.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload live-local --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it records
// the run's parameters and the sample count behind every percentile.
// Any failed operation or result that differs from the in-process
// reference decode makes the run exit non-zero.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRepeats is how many times a run builds and warms the tier;
// setup_s is the median.
const setupRepeats = 9

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload name: live-local, cluster-wal or cluster-handoff")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "length of the paced run, s")
	traced := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for the span dumps of traced runs")
	spin := flag.Bool("spin-idle", false, "run as the idle spinner child (see spin.go)")
	flag.Parse()
	if *spin {
		return spinIdle()
	}
	sp, ok := lookupSpec(*workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 5 || *seconds > 60 {
		return fmt.Errorf("-seconds %d outside [5, 60]", *seconds)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	spinCPUs, stopSpin, err := startIdleSpinner()
	if err != nil {
		return err
	}
	defer stopSpin()

	// Inputs: synthesized, LLRP-encoded and reference-decoded before
	// anything is timed.
	rg := newRig()
	sched, err := buildSchedule(sp, rg, *seed, float64(*seconds))
	if err != nil {
		return err
	}
	warm, err := buildWarmup(rg)
	if err != nil {
		return err
	}
	// Every call is bounded, so a wedged tier fails the run in time.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()

	info := map[string]any{
		"workload": sp.name, "seed": *seed, "seconds": *seconds, "pens": numPens,
		"strokes": len(sched.strokes), "samples": sched.samples,
		"offered_samples_per_s": sched.offeredRate(), "tick_ms": tickLen.Seconds() * 1e3,
		"gomaxprocs": runtime.GOMAXPROCS(0), "idle_spin_cpus": spinCPUs, "trace": *traced,
	}
	o := &ops{}
	var res *result
	if *traced == 1 {
		res, err = runTraced(ctx, sp, rg, sched, warm, *seed, *workdir, o, info)
	} else {
		res, err = runUntraced(ctx, sp, rg, sched, warm, *seed, *workdir, o, info)
	}
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = o.attempted.Load(), o.failed.Load()
	res.Correct = res.Correct && res.Failed == 0
	for _, f := range o.first {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", f)
	}
	if err := printJSON(map[string]any{"run": info}); err != nil {
		return err
	}
	if err := printJSON(res); err != nil {
		return err
	}
	if !res.Correct {
		return errors.New("correctness gate failed")
	}
	return nil
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// pass sets the tier up and drives one open-loop run over it.
func pass(ctx context.Context, sp spec, rg rig, sched *schedule, warm *warmup, seed uint64, workdir string, tr *tracer, o *ops, repeats int) (*runStats, []float64, error) {
	pens := make([]penState, len(sched.pens))
	strokeOf := strokeIDs(sched, pens)
	var setups []float64
	var sys *system
	for i := 0; i < repeats; i++ {
		if sys != nil {
			if err := sys.close(ctx); !o.try(err) {
				return nil, nil, err
			}
		}
		// The harness holds every tick's pre-encoded frames and the
		// reference results; a collection that starts inside the timed
		// set-up would mark them and charge the harness's memory to
		// set-up time.
		runtime.GC()
		s, d, err := setUp(ctx, sp, rg.ants, warm, tr, strokeOf, o)
		if !o.try(err) {
			return nil, nil, err
		}
		sys = s
		setups = append(setups, d.Seconds())
	}
	// Layer counters start with the run: set-up traffic is not counted.
	tr.reset()
	sys.journal.reset()
	sys.wire.reset()
	drops0 := sys.serverDrops()
	rs := drive(ctx, sp, sched, sys.c, pens, seed, tr, o)
	rs.dropped += sys.serverDrops() - drops0
	if err := sys.close(ctx); !o.try(err) {
		return nil, nil, err
	}
	rs.journal, rs.wire = sys.journal, sys.wire
	return rs, setups, nil
}

// gate applies the run-level correctness checks: nothing lost, shed or
// left unfinalized, and no event shed on its way to the subscriber,
// since a lost event would leave its latency out of the percentiles.
func gate(rs *runStats, sched *schedule, o *ops) {
	if rs.lost > 0 {
		o.fail(fmt.Errorf("%d samples lost", rs.lost))
	}
	if rs.shed > 0 {
		o.fail(fmt.Errorf("%d samples shed", rs.shed))
	}
	if n := len(rs.trackErrs); n != len(sched.strokes) {
		o.fail(fmt.Errorf("%d of %d strokes finalized correctly", n, len(sched.strokes)))
	}
	if rs.dropped > 0 {
		o.fail(fmt.Errorf("%d events shed before the subscriber", rs.dropped))
	}
	if rs.commitGaps > 0 {
		o.fail(fmt.Errorf("%d commits arrived after a gap: commits were lost", rs.commitGaps))
	}
	if rs.samples != int64(sched.samples) {
		o.fail(fmt.Errorf("dispatched %d of %d samples", rs.samples, sched.samples))
	}
}

// pctReporter computes the percentiles a report needs and records the
// sample count behind each; a refused percentile is a failed operation.
type pctReporter struct {
	o      *ops
	counts map[string]int
}

func (p pctReporter) pct(name string, xs []float64, q float64) float64 {
	p.counts[name] = len(xs)
	v, err := percentile(xs, q)
	if err != nil {
		p.o.fail(fmt.Errorf("%s: %w", name, err))
	}
	return v
}

// pctOrZero is pct for a layer the workload may not exercise at all
// (no journal on live-local, no handoffs off cluster-handoff): no
// samples reads 0.
func (p pctReporter) pctOrZero(name string, xs []float64, q float64) float64 {
	if len(xs) == 0 {
		p.counts[name] = 0
		return 0
	}
	return p.pct(name, xs, q)
}

func runUntraced(ctx context.Context, sp spec, rg rig, sched *schedule, warm *warmup, seed uint64, workdir string, o *ops, info map[string]any) (*result, error) {
	rs, setups, err := pass(ctx, sp, rg, sched, warm, seed, workdir, nil, o, setupRepeats)
	if err != nil {
		return nil, err
	}
	gate(rs, sched, o)
	p := pctReporter{o: o, counts: map[string]int{}}
	m := endToEnd(rs, setups, p)
	info["commit_p99_ms"] = p.pct("commit_p99_ms", rs.commitMS.pooled(quietOf(rs)), 0.99)
	info["gen.late_p99_ms"] = p.pct("gen.late_p99_ms", rs.lateMS, 0.99)
	info["setup_s_each"] = setups
	addRunInfo(info, rs, p.counts)
	return &result{Correct: true, Metrics: m}, nil
}

// quietOf picks the run's intervals that headline latency and CPU
// pool (see quietest).
func quietOf(rs *runStats) map[int]bool {
	return quietest(rs.steal, int(math.Ceil(maxStagger/intervalLen.Seconds())))
}

// endToEnd computes the metrics a user of the tier sees. Latency and
// CPU pool the run's quietest intervals. The bounded commit tail is the
// p90: the p99 moves with CPU taken by other tenants of the host far
// more than with the tier's own cost, so it is printed with the run
// rather than bounded.
func endToEnd(rs *runStats, setups []float64, p pctReporter) map[string]metric {
	quiet := quietOf(rs)
	p.counts["setup_s"] = len(setups)
	p.counts["track_err_cm"] = len(rs.trackErrs)
	p.counts["intervals_pooled"] = len(quiet)
	var cpuNs, n float64
	for i := range rs.cpuNs {
		if quiet == nil || quiet[i] {
			cpuNs += rs.cpuNs[i]
			n += rs.dispatched[i]
		}
	}
	p.counts["cpu_us_per_sample"] = int(n)
	return map[string]metric{
		"setup_s":           {median(setups), "s"},
		"point_p50_ms":      {p.pct("point_p50_ms", rs.pointMS.pooled(quiet), 0.5), "ms"},
		"commit_p50_ms":     {p.pct("commit_p50_ms", rs.commitMS.pooled(quiet), 0.5), "ms"},
		"commit_p90_ms":     {p.pct("commit_p90_ms", rs.commitMS.pooled(quiet), 0.9), "ms"},
		"finalize_p50_ms":   {p.pct("finalize_p50_ms", rs.finalMS.pooled(quiet), 0.5), "ms"},
		"cpu_us_per_sample": {cpuNs / 1e3 / max(n, 1), "us"},
		"peak_rss_mb":       {rs.peakRSS, "MiB"},
		"track_err_cm":      {mean(rs.trackErrs), "cm"},
	}
}

func addRunInfo(info map[string]any, rs *runStats, counts map[string]int) {
	info["elapsed_s"] = rs.elapsed.Seconds()
	info["dispatched"] = rs.samples
	info["events"] = rs.events
	info["events_untimed_flush"] = rs.excluded
	info["events_dropped"] = rs.dropped
	info["evict_events_missing"] = rs.evictsMissing
	info["commit_gaps"] = rs.commitGaps
	info["held_strokes"] = rs.heldStrokes
	info["held_samples"] = rs.heldSamples
	info["finalize_stats_polls"] = rs.statsPolls
	info["finalize_stats_poll_ms"] = rs.statsPollMS
	info["samples_lost"] = rs.lost
	info["samples_shed"] = rs.shed
	info["counts"] = counts
	info["host_steal_fraction"] = rs.stealFrac
	info["gc_pauses"] = len(rs.gcPausesMS)
	info["gc_cpu_fraction"] = rs.gcCPUFraction
}

func runTraced(ctx context.Context, sp spec, rg rig, sched *schedule, warm *warmup, seed uint64, workdir string, o *ops, info map[string]any) (*result, error) {
	// The untraced pass gives the baseline the tracing overhead is
	// measured against.
	base, _, err := pass(ctx, sp, rg, sched, warm, seed, workdir, nil, o, 1)
	if err != nil {
		return nil, err
	}
	gate(base, sched, o)
	tr := newTracer()
	rs, _, err := pass(ctx, sp, rg, sched, warm, seed, workdir, tr, o, 1)
	if err != nil {
		return nil, err
	}
	gate(rs, sched, o)
	cs, err := replayCore(rg.ants, sched, tr)
	if !o.try(err) {
		return nil, err
	}
	path := traceFile(workdir, sp.name, seed)
	if err := tr.write(path); err != nil {
		return nil, err
	}
	info["trace_file"] = path
	info["spans"] = len(tr.spans)

	p := pctReporter{o: o, counts: map[string]int{}}
	m := perLayer(base, rs, cs, selfTimes(tr.spans), p)
	info["cpu_us_per_sample_untraced"] = float64(base.cpu.Microseconds()) / float64(base.samples)
	info["cpu_us_per_sample_traced"] = float64(rs.cpu.Microseconds()) / float64(rs.samples)
	addRunInfo(info, rs, p.counts)
	return &result{Correct: true, Metrics: m}, nil
}

// traceLayers are the layers the traced run reports self time for,
// named by the prefix of their span names.
var traceLayers = []string{"gen", "llrp", "router", "journal", "lifecycle", "migration", "core"}

// perLayer computes the traced run's per-layer metrics. base is the
// untraced pass, rs the traced one, cs the single-threaded core replay.
func perLayer(base, rs *runStats, cs *coreStats, self map[string]time.Duration, p pctReporter) map[string]metric {
	n := float64(rs.samples)
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	cpuU := float64(base.cpu.Microseconds()) / float64(base.samples)
	cpuT := float64(rs.cpu.Microseconds()) / n
	p.counts["cpu_us_per_sample_untraced"] = int(base.samples)

	put("llrp.decode_ns_per_sample", "ns", float64(rs.llrpNs)/n)
	put("llrp.bytes_per_sample", "B", float64(rs.frameBytes)/n)
	put("router.dispatch_ns_per_sample", "ns", float64(rs.dispatchNs)/n)
	put("router.dispatch_block_p99_ms", "ms", p.pct("router.dispatch_block_p99_ms", rs.dispatchMS, 0.99))
	put("router.shard_skew", "ratio", rs.shardSkew)

	var jAppendNs, jBytes float64
	var jCkpt []float64
	if j := rs.journal; j != nil {
		jAppendNs, jBytes, jCkpt = float64(j.appendNs)/n, float64(j.bytes)/n, j.ckptUS
	}
	put("journal.append_ns_per_sample", "ns", jAppendNs)
	put("journal.checkpoint_us_p50", "us", p.pctOrZero("journal.checkpoint_us_p50", jCkpt, 0.5))
	put("journal.bytes_per_sample", "B", jBytes)

	var wTx, wRx, wWrites, wReads float64
	if w := rs.wire; w != nil {
		wTx = float64(w.rxBytes.Load()) / n
		wRx = float64(w.txBytes.Load()) / float64(max(rs.events, 1))
		wWrites = float64(w.writes.Load()) / n
		wReads = float64(w.reads.Load()) / n
	}
	put("shardrpc.tx_bytes_per_sample", "B", wTx)
	put("shardrpc.rx_bytes_per_event", "B", wRx)
	put("shardrpc.writes_per_sample", "count", wWrites)
	put("shardrpc.reads_per_sample", "count", wReads)

	put("session.queue_depth_max", "count", float64(rs.queueDepthMax))
	put("hub.events_per_sample", "count", float64(rs.events)/n)
	put("hub.events_dropped", "count", float64(rs.dropped))

	cn := float64(cs.samples)
	put("core.push_us_per_sample", "us", float64(cs.pushNs)/cn/1e3)
	put("core.window_us_p50", "us", p.pct("core.window_us_p50", cs.windowUS, 0.5))
	put("core.window_us_p99", "us", p.pct("core.window_us_p99", cs.windowUS, 0.99))
	put("core.allocs_per_sample", "count", float64(cs.allocs)/cn)
	put("core.alloc_bytes_per_sample", "B", float64(cs.bytes)/cn)
	put("core.stencil_hit_ratio", "ratio", float64(cs.hits)/float64(max(cs.lookups, 1)))
	put("core.snapshot_us", "us", p.pct("core.snapshot_us", cs.snapshotUS, 0.5))
	put("core.snapshot_bytes", "B", float64(cs.snapshotBytes)/float64(max(len(cs.snapshotUS), 1)))
	put("core.finalize_ms", "ms", p.pct("core.finalize_ms", cs.finalizeMS, 0.5))

	var handoffMS []float64
	for _, h := range rs.handoffs {
		handoffMS = append(handoffMS, float64(h.end-h.start)/1e6)
	}
	put("migration.handoff_ms_p50", "ms", p.pctOrZero("migration.handoff_ms_p50", handoffMS, 0.5))
	put("migration.handoff_ms_p90", "ms", p.pctOrZero("migration.handoff_ms_p90", handoffMS, 0.9))
	put("migration.bystander_commit_p90_ms", "ms", p.pctOrZero("migration.bystander_commit_p90_ms", bystanders(rs.handoffs, rs.commits), 0.9))

	var pauseMS float64
	for _, d := range rs.gcPausesMS {
		pauseMS += d
	}
	p.counts["runtime.gc_pause_ms_per_s"] = len(rs.gcPausesMS)
	put("runtime.gc_pause_ms_per_s", "ms/s", pauseMS/rs.elapsed.Seconds())
	put("runtime.gc_cpu_fraction", "ratio", rs.gcCPUFraction)
	put("gen.late_p99_ms", "ms", p.pct("gen.late_p99_ms", rs.lateMS, 0.99))
	put("trace.overhead_cpu_us_per_sample", "us", cpuT-cpuU)

	// Self time per layer, from the spans, per sample of the pass that
	// produced them (the core replay decodes the same samples).
	for _, l := range traceLayers {
		put("self."+l+"_us_per_sample", "us", float64(self[l].Nanoseconds())/n/1e3)
	}
	return m
}
