// Command loadgen drives many synthetic pens through the PolarDraw
// serving tier and reports sustained throughput and window-close
// latency — the scale harness for the millions-of-users north star.
//
// It is a consumer of the public polardraw client API: the same
// polardraw.Open call serves both topologies. -shards takes either a
// count (in-process shards behind the rendezvous router — the
// single-process deployment) or a comma-separated list of host:port
// shard servers (shardrpc connections behind the same router — the
// multi-process/multi-host deployment, see `polardraw -serve-shard`).
// Progress and outcomes arrive on the unified event stream
// (Client.Subscribe) rather than callbacks.
//
// It synthesizes a handful of letter write sessions once, then replays
// them under fresh EPCs round after round until the duration elapses:
// every pen gets its own session, every round exercises session
// creation, steady-state decode, and LRU eviction. Window-close
// latency is measured per pen as the time from the most recent
// Dispatch to the Point event that a closed window triggers, i.e.
// session queue + decode time + event delivery (+ both
// network hops in remote mode, where the event arrives over the wire),
// for windows that close while load runs; the windows Close's finalize
// flushes are not timed.
//
// By default samples are offered as fast as the tier accepts them, so
// the numbers characterize saturation. With -pace, samples replay at
// their true timestamps instead, so latency is measured at a fixed
// offered load — the regime a real deployment runs in.
//
//	go run ./cmd/loadgen -pens 64 -shards 4 -duration 10s
//	go run ./cmd/loadgen -pens 64 -shards 127.0.0.1:7101,127.0.0.1:7102
//	go run ./cmd/loadgen -pens 64 -shards 4 -pace
//
// It doubles as the crash-recovery harness: -kill-pid/-kill-after
// SIGKILLs a shard server process mid-load, and -verify replays one
// round, decodes the same streams with an in-process reference tier,
// and exits non-zero unless the cluster's results are bit-identical to
// the reference with zero lost samples — the durability acceptance
// check (run it with -wal; remote shard servers must use the same
// decode flags as this process for the reference to match).
//
//	go run ./cmd/loadgen -shards 127.0.0.1:7101,127.0.0.1:7102 \
//	    -wal mem -pace -verify -kill-pid $SHARD1_PID -kill-after 2s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	mrand "math/rand/v2"
	"os"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"polardraw"
	"polardraw/internal/font"
	"polardraw/internal/geom"
	"polardraw/internal/metrics"
	"polardraw/internal/motion"
	"polardraw/internal/reader"
	"polardraw/internal/rf"
	"polardraw/internal/tag"
)

var (
	pens      = flag.Int("pens", 64, "concurrent pens per round")
	duration  = flag.Duration("duration", 10*time.Second, "how long to sustain load")
	pace      = flag.Bool("pace", false, "replay samples at true timestamps (fixed offered load) instead of at saturation")
	killPID   = flag.Int("kill-pid", 0, "SIGKILL this PID after -kill-after (crash-recovery harness)")
	killAfter = flag.Duration("kill-after", 2*time.Second, "delay from load start to the -kill-pid signal")
	verify    = flag.Bool("verify", false, "single round: decode the same streams in process and require bit-identical results and zero lost samples")
	slowSubs  = flag.Int("slow-subscribers", 0, "attach this many deliberately slow event subscribers (each reads one event per 100ms); decode must shed events to them, never stall")
	zipf      = flag.Float64("zipf", 0, "EPC popularity skew: Zipf exponent over pens (0 = uniform; hot pens replay their stream several times per round)")
	churn     = flag.Float64("churn", 0, "session churn: finalize this many random live sessions per second mid-load; their next sample reopens them implicitly (0 = off)")
	serve     = polardraw.BindFlags(flag.CommandLine)
)

// penState carries the latency probe for one live session.
type penState struct {
	lastEnq atomic.Int64 // UnixNano of the most recent Dispatch
}

func main() {
	flag.Parse()
	ctx := context.Background()

	// Base streams: a few distinct letters simulated once, replayed
	// under per-pen EPCs. Simulation cost stays out of the timed loop.
	letters := []rune{'A', 'C', 'M', 'S', 'Z', 'O', 'W', 'H'}
	rig := motion.DefaultRig()
	ants := rig.Antennas()
	ch := &rf.Channel{Reflectors: rf.OfficeReflectors(rig.BoardW)}
	tag.AD227(1).ApplyTo(ch)
	base := make([][]reader.Sample, len(letters))
	for i, r := range letters {
		g, ok := font.Lookup(r)
		if !ok {
			panic(fmt.Sprintf("no glyph %c", r))
		}
		path := g.Path().Scale(0.2).Translate(geom.Vec2{X: 0.18, Y: 0.03})
		sess := motion.Write(path, string(r), motion.Config{Seed: uint64(i + 1)})
		rd := reader.New(reader.Config{
			Antennas: ants[:], Channel: ch, EPC: tag.AD227(1).EPC, Seed: uint64(i + 1),
		})
		base[i] = rd.Inventory(sess)
	}

	// One round = every pen's full stream, interleaved in time order
	// as a shared reader would emit it.
	type slot struct {
		pen int
		smp reader.Sample
	}
	var sched []slot
	replicas := zipfReplicas(*pens, *zipf)
	for p := 0; p < *pens; p++ {
		stream := base[p%len(base)]
		span := stream[len(stream)-1].T - stream[0].T
		for rep := 0; rep < replicas[p]; rep++ {
			// Replicas replay back-to-back (a hot pen writing its letter
			// repeatedly), keeping each session's timestamps monotonic.
			shift := float64(rep) * (span + 0.05)
			for _, smp := range stream {
				smp.T += shift
				sched = append(sched, slot{pen: p, smp: smp})
			}
		}
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].smp.T < sched[j].smp.T })
	schedT0 := sched[0].smp.T
	schedDur := sched[len(sched)-1].smp.T - schedT0

	// A saturation run closes windows faster than a small event buffer
	// drains at the default; keep the harness lossless unless the
	// operator explicitly sized the buffer. Likewise the session cap
	// defaults to the pen count (several rounds of pens before LRU
	// eviction) only when -max-sessions was not given — an explicit
	// flag must win.
	eventBufferSet, maxSessionsSet := false, false
	flag.Visit(func(f *flag.Flag) {
		eventBufferSet = eventBufferSet || f.Name == "eventbuffer"
		maxSessionsSet = maxSessionsSet || f.Name == "max-sessions"
	})

	opts, err := serve.Options()
	if err != nil {
		fatal(err)
	}
	opts = append(opts, polardraw.WithAntennas(ants))
	if !maxSessionsSet {
		opts = append(opts, polardraw.WithMaxSessions(*pens))
	}
	if !eventBufferSet {
		opts = append(opts, polardraw.WithEventBuffer(1<<16))
	}
	if serve.Remote() {
		// Probe the shard servers every second so a dead shard shows up
		// in the final health report even if dispatches stop reaching it.
		opts = append(opts, polardraw.WithHeartbeat(time.Second))
	}
	c, err := openRetry(ctx, opts)
	if err != nil {
		fatal(err)
	}
	if *serve.MetricsAddr != "" {
		ms, err := c.ServeMetrics(*serve.MetricsAddr)
		if err != nil {
			fatal(fmt.Errorf("metrics listener: %w", err))
		}
		defer ms.Close()
		fmt.Printf("loadgen: metrics at http://%s/metrics\n", ms.Addr())
	}

	// The in-process reference tier for -verify: same antennas, same
	// decode flags, fed the same samples. Remote shard servers must run
	// with matching decode flags or the comparison is meaningless.
	var ref *polardraw.Client
	if *verify {
		refOpts := []polardraw.Option{
			polardraw.WithAntennas(ants),
			polardraw.WithShards(1),
			polardraw.WithMaxSessions(*pens),
			polardraw.WithCommitLag(*serve.Lag),
			polardraw.WithBeamTopK(*serve.TopK),
			polardraw.WithAdaptiveBeam(*serve.Adaptive),
		}
		if *serve.Window != 0 {
			refOpts = append(refOpts, polardraw.WithWindow(*serve.Window))
		}
		if ref, err = polardraw.Open(ctx, refOpts...); err != nil {
			fatal(err)
		}
	}

	var (
		states      sync.Map // epc -> *penState
		windowsDone atomic.Int64
		eventsSeen  atomic.Int64
		latMu       sync.Mutex
		latencies   []float64 // milliseconds
		evictOK     atomic.Int64
		evictErr    atomic.Int64
		// closing stops latency recording: the windows Close's
		// finalize emits for pens idle since their round ended are
		// timed against that round's last enqueue, not decode work.
		closing atomic.Bool
	)
	const maxLatSamples = 1 << 21

	// One subscription to the unified event stream observes every pen
	// on every shard, local or remote.
	events, cancelEvents := c.Subscribe(ctx)
	eventsDone := make(chan struct{})
	go func() {
		defer close(eventsDone)
		for ev := range events {
			eventsSeen.Add(1)
			switch ev.Kind {
			case polardraw.EventPoint:
				windowsDone.Add(1)
				if v, ok := states.Load(ev.EPC); ok && !closing.Load() {
					lat := float64(time.Now().UnixNano()-v.(*penState).lastEnq.Load()) / 1e6
					latMu.Lock()
					if len(latencies) < maxLatSamples {
						latencies = append(latencies, lat)
					}
					latMu.Unlock()
				}
			case polardraw.EventEvict:
				if ev.Err != nil {
					evictErr.Add(1)
				} else {
					evictOK.Add(1)
				}
			}
		}
	}()

	// Slow subscribers model an under-provisioned consumer (a laggy
	// dashboard): each reads one event per 100ms from its own default-
	// sized subscription. The contract under test is shed-don't-stall —
	// they must cost events (EventsDropped), never throughput.
	var slowCancels []polardraw.CancelFunc
	var slowSeen atomic.Int64
	for i := 0; i < *slowSubs; i++ {
		sch, subCancel := c.Subscribe(ctx)
		slowCancels = append(slowCancels, subCancel)
		go func() {
			for range sch {
				slowSeen.Add(1)
				time.Sleep(100 * time.Millisecond)
			}
		}()
	}

	// Churn forces the session-lifecycle path under load: a ticker
	// finalizes random live sessions; the next sample for a churned EPC
	// reopens it implicitly (inheriting the client's decode defaults —
	// the hello push in remote mode). Incompatible with -verify,
	// which requires every session live at close.
	var churned atomic.Int64
	var curRound atomic.Int64
	churnCtx, stopChurn := context.WithCancel(ctx)
	defer stopChurn()
	if *churn > 0 {
		if *verify {
			fatal(errors.New("-churn is incompatible with -verify (churned sessions finalize early)"))
		}
		go func() {
			rng := mrand.New(mrand.NewPCG(0x70617065, 0x72647277))
			tick := time.NewTicker(time.Duration(float64(time.Second) / *churn))
			defer tick.Stop()
			for {
				select {
				case <-churnCtx.Done():
					return
				case <-tick.C:
					epc := fmt.Sprintf("pen-%04d-%06d", rng.IntN(*pens), curRound.Load())
					if _, err := c.Finalize(churnCtx, epc); err == nil {
						churned.Add(1)
					}
				}
			}
		}()
	}

	// Decode settings are printed only for the topology they govern:
	// remote shards decode with their servers' configuration (set on
	// `polardraw -serve-shard`), not with this process's flags.
	if serve.Remote() {
		fmt.Printf("loadgen: pens=%d pace=%v remote shards=%v (decode config is the servers')\n",
			*pens, *pace, c.Backends())
	} else {
		fmt.Printf("loadgen: pens=%d pace=%v local shards=%s window=%g lag=%d topk=%d adaptive=%v queue=%d drop=%v\n",
			*pens, *pace, *serve.Shards, *serve.Window, *serve.Lag, *serve.TopK, *serve.Adaptive, *serve.Queue, *serve.Drop)
	}
	if *pace {
		offered := float64(len(sched)) / schedDur
		fmt.Printf("offered load: %.0f samples/s (%d samples per %.2fs round)\n",
			offered, len(sched), schedDur)
	}

	deadline := time.Now().Add(*duration)
	start := time.Now()
	if *killPID != 0 {
		time.AfterFunc(*killAfter, func() {
			fmt.Printf("loadgen: SIGKILL pid %d (%.1fs into the load)\n", *killPID, time.Since(start).Seconds())
			if err := syscall.Kill(*killPID, syscall.SIGKILL); err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: kill %d: %v\n", *killPID, err)
			}
		})
	}
	dispatched := int64(0)
	dispatchErrs := int64(0)
	shed := int64(0)
	rounds := 0
	for rounds == 0 || time.Now().Before(deadline) {
		curRound.Store(int64(rounds))
		for p := 0; p < *pens; p++ {
			epc := fmt.Sprintf("pen-%04d-%06d", p, rounds)
			states.Store(epc, &penState{})
		}
		roundStart := time.Now()
		for _, sl := range sched {
			if *pace {
				target := roundStart.Add(time.Duration((sl.smp.T - schedT0) * float64(time.Second)))
				if d := time.Until(target); d > 0 {
					time.Sleep(d)
				}
			}
			epc := fmt.Sprintf("pen-%04d-%06d", sl.pen, rounds)
			smp := sl.smp
			smp.EPC = epc
			if v, ok := states.Load(epc); ok {
				v.(*penState).lastEnq.Store(time.Now().UnixNano())
			}
			if err := c.Dispatch(ctx, smp); err != nil {
				if errors.Is(err, polardraw.ErrOverloaded) {
					// Admission shed: by design under -admit-rate /
					// -admit-inflight. The sample never entered the
					// tier, so the reference must not see it either.
					shed++
					continue
				}
				// With a WAL the journal holds every sample the tier
				// accepted for routing: a dispatch error during an
				// outage is a delay (failover replays it), not a loss.
				if *serve.WAL == "" {
					panic(err)
				}
				dispatchErrs++
			}
			if ref != nil {
				if err := ref.Dispatch(ctx, smp); err != nil {
					panic(err)
				}
			}
			dispatched++
		}
		rounds++
		if *verify {
			break // one deterministic round; every session live at close
		}
		if time.Since(start) > 10*(*duration) {
			break // safety valve: a single round took far too long
		}
	}
	if *verify && *killPID != 0 {
		waitRecovery(c, rounds)
	}
	// Decode telemetry snapshot over the sessions still live (evicted
	// ones carried their counters out with them): how sparse the beam
	// ran, how the lag smoother committed, and how the shared stencil
	// cache served the tier.
	var decodeLine string
	if sts, err := c.Stats(ctx); err == nil {
		var activeMean, occupancy float64
		var merged, forced int
		var sHits, sMisses uint64
		n := 0
		for _, st := range sts {
			if st.Decode.Steps == 0 {
				continue
			}
			n++
			activeMean += st.Decode.ActiveMean
			occupancy += st.Decode.Occupancy
			merged += st.Decode.MergeCommits
			forced += st.Decode.ForcedCommits
			sHits += st.Decode.StencilHits
			sMisses += st.Decode.StencilMisses
		}
		if n > 0 {
			decodeLine = fmt.Sprintf(
				"decode (%d live sessions): mean active %.0f cells (%.2f%% of grid), commits merged=%d forced=%d, stencil hit rate %.1f%%",
				n, activeMean/float64(n), occupancy/float64(n)*100, merged, forced,
				hitRate(sHits, sMisses))
		}
	}
	stopChurn()
	closing.Store(true)
	results, err := c.Close(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: close: %v\n", err)
	}
	elapsed := time.Since(start)
	// Drain the stream so every Evict emitted by Close is counted.
	cancelEvents()
	<-eventsDone
	for _, cancel := range slowCancels {
		cancel()
	}

	wins := windowsDone.Load()
	fmt.Printf("rounds=%d sessions=%d (%d still live and finalized at close)\n",
		rounds, rounds*(*pens), len(results))
	fmt.Printf("dispatched %d samples in %.2fs: %.0f samples/s\n",
		dispatched, elapsed.Seconds(), float64(dispatched)/elapsed.Seconds())
	fmt.Printf("windows closed: %d (%.0f windows/s)\n",
		wins, float64(wins)/elapsed.Seconds())
	latMu.Lock()
	p50 := metrics.Percentile(latencies, 50)
	p99 := metrics.Percentile(latencies, 99)
	p999 := metrics.Percentile(latencies, 99.9)
	n := len(latencies)
	latMu.Unlock()
	fmt.Printf("window-close latency (n=%d): p50=%.3fms p99=%.3fms p999=%.3fms\n", n, p50, p99, p999)
	if decodeLine != "" {
		fmt.Println(decodeLine)
	}
	fmt.Printf("finalized: %d ok, %d too-short\n", evictOK.Load(), evictErr.Load())
	if hits, misses, ok := c.StencilCacheStats(); ok {
		fmt.Printf("stencil cache (grid-wide): hits=%d misses=%d (%.1f%% hit rate)\n",
			hits, misses, hitRate(hits, misses))
	} else {
		healthy, unhealthy := c.HealthCounts()
		fmt.Printf("backends: %d healthy, %d unhealthy; samples lost to transport: %d\n",
			healthy, unhealthy, c.SamplesLost())
		for _, h := range c.Health() {
			fmt.Printf("backend %s: dispatched=%d dropped=%d shed=%d errors=%d pings=%d pingfails=%d healthy=%v\n",
				h.Name, h.Dispatched, h.Dropped, h.Shed, h.Errors, h.Pings, h.PingFails, h.Healthy)
		}
	}
	if dispatchErrs > 0 {
		fmt.Printf("dispatch errors tolerated under WAL: %d\n", dispatchErrs)
	}
	fmt.Printf("admission shed: %d samples refused with ErrOverloaded (router counter: %d)\n",
		shed, c.SamplesShed())
	fmt.Printf("subscriber events: %d delivered (%.0f events/s)\n",
		eventsSeen.Load(), float64(eventsSeen.Load())/elapsed.Seconds())
	if *churn > 0 {
		fmt.Printf("churn: %d sessions finalized mid-load and reopened on their next sample\n", churned.Load())
	}
	if *slowSubs > 0 {
		fmt.Printf("slow subscribers: %d consumers read %d events; %d events shed at full buffers (decode never stalled)\n",
			*slowSubs, slowSeen.Load(), c.EventsDropped())
	}
	if *verify {
		verifyAgainst(ctx, ref, c, results)
	}
}

// zipfReplicas maps the -zipf exponent to per-pen stream replica
// counts: pen p carries weight (p+1)^-s, scaled so the total replica
// count stays near the pen count. Every pen keeps at least one copy —
// the skew concentrates volume on hot pens without starving the tail.
func zipfReplicas(pens int, s float64) []int {
	out := make([]int, pens)
	for p := range out {
		out[p] = 1
	}
	if s <= 0 || pens == 0 {
		return out
	}
	weights := make([]float64, pens)
	var sum float64
	for p := range weights {
		weights[p] = math.Pow(float64(p+1), -s)
		sum += weights[p]
	}
	for p := range out {
		if n := int(math.Round(weights[p] / sum * float64(pens))); n > 1 {
			out[p] = n
		}
	}
	return out
}

// verifyAgainst closes the reference tier and requires the cluster's
// results to be bit-identical to it with zero lost samples, exiting
// non-zero on any divergence.
func verifyAgainst(ctx context.Context, ref *polardraw.Client, c *polardraw.Client, got map[string]*polardraw.Result) {
	want, err := ref.Close(ctx)
	if err != nil {
		fatal(fmt.Errorf("verify: reference close: %w", err))
	}
	bad := 0
	for epc, w := range want {
		g, ok := got[epc]
		if !ok {
			fmt.Fprintf(os.Stderr, "verify: %s decoded by the reference but missing from the cluster\n", epc)
			bad++
			continue
		}
		if !reflect.DeepEqual(g, w) {
			fmt.Fprintf(os.Stderr, "verify: %s diverged from the reference decode (%d vs %d trajectory points)\n",
				epc, len(g.Trajectory), len(w.Trajectory))
			bad++
		}
	}
	for epc := range got {
		if _, ok := want[epc]; !ok {
			fmt.Fprintf(os.Stderr, "verify: %s decoded by the cluster but not the reference\n", epc)
			bad++
		}
	}
	if lost := c.SamplesLost(); lost > 0 {
		fmt.Fprintf(os.Stderr, "verify: %d samples lost\n", lost)
		bad++
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "verify: FAILED (%d problems)\n", bad)
		os.Exit(1)
	}
	fmt.Printf("verify: OK — %d trajectories bit-identical to the reference, 0 samples lost\n", len(want))
}

// waitRecovery blocks until every pen of the final round routes to a
// healthy backend (failover migrations pinned), so Close doesn't race
// an in-flight migration after a kill.
func waitRecovery(c *polardraw.Client, rounds int) {
	deadline := time.Now().Add(45 * time.Second)
	for {
		healthy := map[string]bool{}
		for _, h := range c.Health() {
			if h.Healthy {
				healthy[h.Name] = true
			}
		}
		settled := len(healthy) > 0
		for p := 0; settled && p < *pens; p++ {
			epc := fmt.Sprintf("pen-%04d-%06d", p, rounds-1)
			settled = healthy[c.BackendFor(epc)]
		}
		if settled {
			fmt.Println("loadgen: cluster recovered; every pen routed to a healthy shard")
			return
		}
		if time.Now().After(deadline) {
			fmt.Fprintln(os.Stderr, "loadgen: recovery did not converge within 45s")
			os.Exit(1)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// hitRate returns hits/(hits+misses) as a percentage, 0 when idle.
func hitRate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses) * 100
}

// openRetry opens the client, retrying while remote shard servers
// start up (the CI smoke launches servers and loadgen together).
func openRetry(ctx context.Context, opts []polardraw.Option) (*polardraw.Client, error) {
	var lastErr error
	for i := 0; i < 20; i++ {
		c, err := polardraw.Open(ctx, opts...)
		if err == nil {
			return c, nil
		}
		if !errors.Is(err, polardraw.ErrBackendUnavailable) {
			return nil, err
		}
		lastErr = err
		time.Sleep(250 * time.Millisecond)
	}
	return nil, lastErr
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
