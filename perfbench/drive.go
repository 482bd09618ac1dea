package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"polardraw"
	"polardraw/internal/geom"
	"polardraw/internal/rng"
)

// lifecycleWorkers issue Finalize and the next stroke's OpenSession off
// the pacing goroutine, so a slow call never delays the schedule.
const lifecycleWorkers = 4

// penState is the run-time state of one pen shared between the pacer,
// the lifecycle workers, the handoff driver and the event consumer.
type penState struct {
	// lastDue is the due offset (ns) of the pen's newest dispatched
	// sample, the start of every latency the pen's events measure.
	lastDue atomic.Int64
	// opened is the index of the pen's stroke whose session is open,
	// -1 before the first.
	opened atomic.Int32
	// sending is the index of the newest stroke the generator has
	// started sending.
	sending atomic.Int32
	// mu serializes Finalize, OpenSession and Handoff for the pen.
	mu sync.Mutex
	// A stroke that comes due before the pen's previous stroke is
	// finalized and the next session opened is held: the generator
	// queues its samples in held, on time, and the lifecycle worker
	// that opens the session dispatches them. So a slow Finalize delays
	// its own pen, never the schedule. holdMu guards held and the
	// transitions of holding.
	holdMu  sync.Mutex
	holding atomic.Bool
	held    []polardraw.Sample
}

// holds counts the strokes and samples that waited for their session.
type holds struct {
	active           atomic.Int32 // pens holding now
	strokes, samples atomic.Int64
}

// begin is called by the generator at the first tick of stroke k of
// the pen: it starts sending the stroke, or holds it if the pen's
// session for it is not open yet.
func (ps *penState) begin(k int, h *holds) error {
	ps.holdMu.Lock()
	defer ps.holdMu.Unlock()
	switch {
	case int(ps.opened.Load()) >= k:
		ps.sending.Store(int32(k))
	case ps.holding.Load():
		return fmt.Errorf("stroke %d came due while stroke %d still waited for its session", k, k-1)
	default:
		ps.holding.Store(true)
		h.active.Add(1)
		h.strokes.Add(1)
	}
	return nil
}

// open records that the pen's stroke k has its session and dispatches
// what the generator held for it.
func (ps *penState) open(ctx context.Context, c *polardraw.Client, k int, h *holds, o *ops) {
	for {
		ps.holdMu.Lock()
		if !ps.holding.Load() {
			ps.opened.Store(int32(k))
			ps.holdMu.Unlock()
			return
		}
		ps.sending.Store(int32(k))
		batch := ps.held
		ps.held = nil
		if len(batch) == 0 {
			ps.opened.Store(int32(k))
			ps.holding.Store(false)
			h.active.Add(-1)
			ps.holdMu.Unlock()
			return
		}
		ps.holdMu.Unlock()
		o.try(c.DispatchBatch(ctx, batch))
	}
}

// divert moves the samples of pens that are holding into their hold
// queues and returns the rest.
func divert(s *schedule, pens []penState, smps []polardraw.Sample, h *holds) []polardraw.Sample {
	rest := make([]polardraw.Sample, 0, len(smps))
	var byPen map[int][]polardraw.Sample
	for _, smp := range smps {
		if p := s.penIdx[smp.EPC]; pens[p].holding.Load() {
			if byPen == nil {
				byPen = make(map[int][]polardraw.Sample)
			}
			byPen[p] = append(byPen[p], smp)
			continue
		}
		rest = append(rest, smp)
	}
	for p, xs := range byPen {
		ps := &pens[p]
		ps.holdMu.Lock()
		if ps.holding.Load() {
			ps.held = append(ps.held, xs...)
			h.samples.Add(int64(len(xs)))
			xs = nil
		}
		ps.holdMu.Unlock()
		// A pen released since the check above takes its samples now.
		rest = append(rest, xs...)
	}
	return rest
}

// ops counts operations attempted and failed, keeping the first few
// failures for the report.
type ops struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	first             []string
}

func (o *ops) try(err error) bool {
	o.attempted.Add(1)
	if err == nil {
		return true
	}
	o.fail(err)
	return false
}

func (o *ops) fail(err error) {
	o.failed.Add(1)
	o.mu.Lock()
	if len(o.first) < 5 {
		o.first = append(o.first, err.Error())
	}
	o.mu.Unlock()
}

// runStats is everything one open-loop run measured.
type runStats struct {
	elapsed    time.Duration
	cpu        time.Duration
	samples    int64
	pointMS    series
	commitMS   series
	finalMS    series
	cpuNs      []float64 // process CPU time in each interval
	dispatched []float64 // samples dispatched in each interval
	lateMS     []float64 // generator lateness per tick
	trackErrs  []float64 // cm, one per finalized stroke
	excluded   int64     // flush-triggered events left untimed
	commitGaps int64     // fresh commits that skipped windows: commits lost
	// heldStrokes and heldSamples count what waited for a pen's
	// previous Finalize (see penState.held).
	heldStrokes, heldSamples int64
	// statsPolls and statsPollMS are the Client.Stats polls made before
	// local Finalize calls and the wall time they took.
	statsPolls  int64
	statsPollMS float64
	peakRSS     float64   // MiB, over the timed run
	stealFrac   float64   // share of the host's busy CPU time stolen in the run
	steal       []float64 // the same, per interval
	// evictsMissing counts finalized strokes whose EventEvict never
	// reached the subscriber.
	evictsMissing int64
	events        int64  // events the subscriber received
	dropped       uint64 // events shed at full subscriber or server queues
	lost          uint64
	shed          uint64

	// For the per-layer report.
	handoffs      []handoffRec
	commits       []commitRec
	shardSkew     float64
	gcPausesMS    []float64
	gcCPUFraction float64

	// Traced runs only.
	llrpNs, dispatchNs int64
	frameBytes         int64
	dispatchMS         []float64
	queueDepthMax      int
	journal            *timedJournal
	wire               *wireCounter
}

// classifier decides which subscriber events are timed. Points and
// commits produced by the pen-up flush in Finalize are excluded: they
// were not caused by the newest dispatched sample, and timing them
// from it would charge the whole pen-up gap as latency. So are the
// catch-up commits a session re-emits after a handoff restore. A fresh
// commit that starts past the windows committed so far means commits
// were lost on the way (shed at a full buffer); it is timed, and
// counted in gaps.
type classifier struct {
	gaps  int64
	sched *schedule
	pens  []penState
	// Per pen, touched only by the consumer goroutine.
	evicts     []int // Evict events seen
	stroke     []int // stroke the pen's last event belonged to
	nextCommit []int // window index the next fresh commit starts at
}

func newClassifier(s *schedule, pens []penState) *classifier {
	n := len(s.pens)
	return &classifier{sched: s, pens: pens, evicts: make([]int, n), stroke: make([]int, n), nextCommit: make([]int, n)}
}

// timed reports whether ev is a sample-triggered point or commit and,
// if so, the pen it belongs to. An event belongs to the pen's stroke
// after the last one evicted, or to the newest stroke the generator has
// started sending, whichever is later: an Evict the tier does not
// deliver must not shift every later stroke.
func (c *classifier) timed(ev polardraw.Event) (pen int, ok bool) {
	p, known := c.sched.penIdx[ev.EPC]
	if !known {
		return 0, false
	}
	if ev.Kind == polardraw.EventEvict {
		c.evicts[p]++
		return p, false
	}
	k := max(c.evicts[p], int(c.pens[p].sending.Load()))
	if k != c.stroke[p] {
		c.stroke[p], c.nextCommit[p] = k, 0
	}
	strokes := c.sched.pens[p].strokes
	if k >= len(strokes) {
		return p, false
	}
	b := c.sched.strokes[strokes[k]].base
	switch ev.Kind {
	case polardraw.EventPoint:
		return p, ev.Window.T < b.flushPointT
	case polardraw.EventCommit:
		end := ev.CommitStart + len(ev.Segment)
		if ev.CommitStart < c.nextCommit[p] {
			// Catch-up replay of an already committed prefix.
			c.nextCommit[p] = max(c.nextCommit[p], end)
			return p, false
		}
		if ev.CommitStart > c.nextCommit[p] {
			if c.evicts[p] < k {
				// The previous stroke's Evict has not arrived, so this may
				// be one of its late commits: leave it untimed.
				return p, false
			}
			c.gaps++
		}
		c.nextCommit[p] = end
		return p, ev.CommitStart < b.flushCommitFrom
	}
	return p, false
}

// strokeIDs maps an EPC to the global index of the pen's open stroke,
// the ID its spans are tagged with (-1 for EPCs outside the schedule).
func strokeIDs(s *schedule, pens []penState) func(string) int64 {
	return func(epc string) int64 {
		p, ok := s.penIdx[epc]
		if !ok {
			return -1
		}
		k := pens[p].opened.Load()
		if k < 0 || int(k) >= len(s.pens[p].strokes) {
			return -1
		}
		return int64(s.pens[p].strokes[k])
	}
}

// drive runs the open loop against a set-up system: one generator
// goroutine sends every tick's frame at its due time whether or not the
// tier keeps up, lifecycle workers finalize strokes at pen-up and open
// the next, a handoff driver moves live pens (cluster-handoff), and one
// unfiltered subscriber times the events.
func drive(ctx context.Context, sp spec, s *schedule, c *polardraw.Client, pens []penState, seed uint64, tr *tracer, o *ops) *runStats {
	rs := &runStats{}
	events, cancel := c.Subscribe(ctx)
	defer cancel()
	for p, ps := range s.pens {
		pens[p].opened.Store(-1)
		if len(ps.strokes) > 0 && o.try(c.OpenSession(ctx, ps.epc)) {
			pens[p].opened.Store(0)
		}
	}

	var (
		evicts    atomic.Int64 // Evict events seen
		consumer  sync.WaitGroup
		allEvicts = make(chan struct{})
	)
	if err := resetPeakRSS(); err != nil {
		o.fail(fmt.Errorf("reset peak RSS: %w", err))
	}
	health0 := c.Health()
	rt0 := readRuntime()
	cpu0 := cpuTime()
	host0, steal0 := hostCPU()
	start := time.Now()
	since := func() int64 { return int64(time.Since(start)) }
	cls := newClassifier(s, pens)
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		want := int64(len(s.strokes))
		for ev := range events {
			rs.events++
			p, ok := cls.timed(ev)
			if ev.Kind == polardraw.EventEvict {
				if _, known := s.penIdx[ev.EPC]; known && evicts.Add(1) == want {
					close(allEvicts)
				}
				continue
			}
			if !ok {
				if ev.Kind == polardraw.EventPoint || ev.Kind == polardraw.EventCommit {
					rs.excluded++
				}
				continue
			}
			due := pens[p].lastDue.Load()
			lat := float64(since()-due) / 1e6
			if ev.Kind == polardraw.EventPoint {
				rs.pointMS.add(time.Duration(due), lat)
				continue
			}
			rs.commitMS.add(time.Duration(due), lat)
			rs.commits = append(rs.commits, commitRec{due: due, pen: p, lat: lat})
		}
	}()

	// Lifecycle: Finalize at pen-up, check the result, open the pen's
	// next stroke and dispatch what was held for it.
	var (
		hold  holds
		waits receiptWaits
	)
	pending := make(chan int, len(s.strokes)) // one send per stroke
	var lifeMu sync.Mutex
	var workers sync.WaitGroup
	for w := 0; w < lifecycleWorkers; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for sid := range pending {
				st := &s.strokes[sid]
				ps := &pens[st.pen]
				epc := s.pens[st.pen].epc
				ps.mu.Lock()
				t0 := tr.now()
				var res *polardraw.Result
				err := awaitReceived(ctx, c, epc, len(st.base.samples), &waits)
				if err == nil {
					res, err = c.Finalize(ctx, epc)
				}
				due := s.ticks[st.lastTick].due
				lat := float64(since()-int64(due)) / 1e6
				tr.add(span{Name: "lifecycle.finalize", Stroke: int64(sid), Start: t0, End: tr.now()})
				errCM := -1.0
				if o.try(err) {
					if err := checkResult(res, st.base.ref); err != nil {
						o.fail(fmt.Errorf("stroke %d (pen %d, letter %q): %w", sid, st.pen, st.base.letter, err))
					} else if d, perr := geom.ProcrustesDistance(res.Trajectory, st.base.truth, 64); perr == nil {
						errCM = d * 100
					}
				}
				if next := st.k + 1; next < len(s.pens[st.pen].strokes) {
					t1 := tr.now()
					o.try(c.OpenSession(ctx, epc))
					ps.open(ctx, c, next, &hold, o)
					tr.add(span{Name: "lifecycle.open", Stroke: int64(s.pens[st.pen].strokes[next]), Start: t1, End: tr.now()})
				}
				ps.mu.Unlock()
				lifeMu.Lock()
				rs.finalMS.add(due, lat)
				if errCM >= 0 {
					rs.trackErrs = append(rs.trackErrs, errCM)
				}
				lifeMu.Unlock()
			}
		}()
	}

	stopHandoff := make(chan struct{})
	var handoffs sync.WaitGroup
	if sp.handoff > 0 {
		handoffs.Add(1)
		go func() {
			defer handoffs.Done()
			rs.handoffs = handoffDriver(ctx, sp, s, pens, c, seed, since, stopHandoff, tr, o)
		}()
	}

	stopStats := make(chan struct{})
	var statsPoll sync.WaitGroup
	if tr != nil {
		statsPoll.Add(1)
		go func() {
			defer statsPoll.Done()
			rs.queueDepthMax = pollQueueDepth(ctx, c, stopStats, o)
		}()
	}

	// CPU is read at every interval boundary; the drain after the last
	// tick counts toward the last interval.
	markCPU, markN, nextMark := cpu0, int64(0), intervalLen
	markBusy, markSteal := host0, steal0
	mark := func() {
		c := cpuTime()
		busy, steal := hostCPU()
		share := 0.0
		if busy > markBusy {
			share = (steal - markSteal) / (busy - markBusy)
		}
		rs.cpuNs = append(rs.cpuNs, float64((c - markCPU).Nanoseconds()))
		rs.dispatched = append(rs.dispatched, float64(rs.samples-markN))
		rs.steal = append(rs.steal, share)
		markCPU, markN, markBusy, markSteal = c, rs.samples, busy, steal
	}
	for i := range s.ticks {
		tk := &s.ticks[i]
		if tk.n == 0 && len(tk.ends) == 0 {
			continue
		}
		if tk.due >= nextMark && float64(nextMark+intervalLen) <= s.seconds*float64(time.Second) {
			mark()
			nextMark += intervalLen
		}
		if d := tk.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		rs.lateMS = append(rs.lateMS, float64(time.Since(start)-tk.due)/1e6)
		for _, sid := range tk.starts {
			st := &s.strokes[sid]
			if err := pens[st.pen].begin(st.k, &hold); err != nil {
				o.fail(fmt.Errorf("pen %d: %w", st.pen, err))
			}
		}
		tickID := tr.newID()
		t0 := tr.now()
		smps, err := decodeFrame(tk.frame)
		t1 := tr.now()
		if !o.try(err) {
			continue
		}
		for _, p := range tk.pens {
			pens[p].lastDue.Store(int64(tk.due))
		}
		rs.samples += int64(len(smps))
		if hold.active.Load() > 0 {
			smps = divert(s, pens, smps, &hold)
		}
		dispID := tr.newID()
		if tr != nil {
			tr.dispatching.Store(dispID)
		}
		if len(smps) > 0 {
			o.try(c.DispatchBatch(ctx, smps))
		}
		t2 := tr.now()
		for _, sid := range tk.ends {
			pending <- sid
		}
		if tr != nil {
			tr.dispatching.Store(0)
			rs.llrpNs += t1 - t0
			rs.dispatchNs += t2 - t1
			rs.frameBytes += int64(len(tk.frame))
			rs.dispatchMS = append(rs.dispatchMS, float64(t2-t1)/1e6)
			tr.add(span{ID: tickID, Name: "gen.tick", Stroke: -1, Start: t0, End: tr.now()})
			tr.add(span{Parent: tickID, Name: "llrp.decode", Stroke: -1, Start: t0, End: t1})
			tr.add(span{ID: dispID, Parent: tickID, Name: "router.dispatch", Stroke: -1, Start: t1, End: t2})
		}
	}
	close(pending)
	close(stopHandoff)
	workers.Wait()
	handoffs.Wait()
	rs.elapsed = time.Since(start)
	rs.peakRSS = peakRSSMiB()
	mark()
	rs.cpu = markCPU - cpu0
	if host1, steal1 := hostCPU(); host1 > host0 {
		rs.stealFrac = (steal1 - steal0) / (host1 - host0)
	}
	rt1 := readRuntime()
	close(stopStats)
	statsPoll.Wait()
	rs.gcPausesMS, rs.gcCPUFraction = gcBetween(rt0, rt1)
	rs.shardSkew = skew(health0, c.Health())

	// Every stroke is finalized; give the stream a moment to deliver the
	// last Evicts, then detach. Evicts that never arrive are reported.
	select {
	case <-allEvicts:
	case <-time.After(time.Second):
	}
	cancel()
	consumer.Wait()
	rs.evictsMissing = int64(len(s.strokes)) - evicts.Load()
	rs.commitGaps = cls.gaps
	rs.heldStrokes, rs.heldSamples = hold.strokes.Load(), hold.samples.Load()
	rs.statsPolls, rs.statsPollMS = waits.polls.Load(), float64(waits.ns.Load())/1e6
	rs.dropped = c.EventsDropped()
	rs.lost = c.SamplesLost()
	rs.shed = c.SamplesShed()
	return rs
}

// handoffRec is one Client.Handoff call: the pen moved and when the
// call ran, in ns since the run's start.
type handoffRec struct {
	pen        int
	start, end int64
}

// commitRec is one timed commit: its pen, the due time it is timed
// from (ns since the run's start) and its latency.
type commitRec struct {
	due int64
	pen int
	lat float64
}

// handoffDriver moves live mid-stroke pens to the other shard at a
// seeded Poisson rate until stop closes.
func handoffDriver(ctx context.Context, sp spec, s *schedule, pens []penState, c *polardraw.Client, seed uint64, since func() int64, stop <-chan struct{}, tr *tracer, o *ops) []handoffRec {
	r := rng.New(seed).Fork(7)
	backends := c.Backends()
	var out []handoffRec
	next := 0.0
	for {
		next += -math.Log(1-r.Float64()) / sp.handoff
		if next >= s.seconds {
			return out
		}
		due := time.Duration(next * float64(time.Second))
		select {
		case <-stop:
			return out
		case <-time.After(due - time.Duration(since())):
		}
		now := float64(since()) / 1e9
		// Try a few seeded pens for one that is mid-stroke with at least
		// half a second written and half a second to go.
		for try := 0; try < 16; try++ {
			p := r.Intn(len(s.pens))
			k := int(pens[p].opened.Load())
			if k < 0 || k >= len(s.pens[p].strokes) {
				continue
			}
			sid := s.pens[p].strokes[k]
			st := &s.strokes[sid]
			written := float64(pens[p].lastDue.Load())/1e9 - st.start
			if written < 0.5 || st.end-now < 0.5 || !pens[p].mu.TryLock() {
				continue
			}
			epc := s.pens[p].epc
			to := backends[0]
			if c.BackendFor(epc) == to {
				to = backends[1]
			}
			t0 := tr.now()
			h := handoffRec{pen: p, start: since()}
			err := c.Handoff(ctx, epc, to)
			h.end = since()
			tr.add(span{Name: "migration.handoff", Stroke: int64(sid), Start: t0, End: tr.now()})
			pens[p].mu.Unlock()
			o.try(err)
			out = append(out, h)
			break
		}
	}
}

// bystanders returns the latency of commits timed from a sample of
// another pen that was due while a handoff was in flight: the wait a
// migration imposes on pens it does not move.
func bystanders(hs []handoffRec, cs []commitRec) []float64 {
	var out []float64
	for _, c := range cs {
		for _, h := range hs {
			if c.pen != h.pen && c.due >= h.start && c.due <= h.end {
				out = append(out, c.lat)
				break
			}
		}
	}
	return out
}

// pollQueueDepth samples Client.Stats once a second and returns the
// largest session queue depth seen.
func pollQueueDepth(ctx context.Context, c *polardraw.Client, stop <-chan struct{}, o *ops) int {
	best := 0
	tk := time.NewTicker(time.Second)
	defer tk.Stop()
	for {
		select {
		case <-stop:
			return best
		case <-tk.C:
		}
		sts, err := c.Stats(ctx)
		if !o.try(err) {
			continue
		}
		for _, st := range sts {
			best = max(best, st.QueueMaxDepth)
		}
	}
}

// skew is the max over mean of the samples each backend received
// between two health snapshots.
func skew(before, after []polardraw.BackendHealth) float64 {
	var sum, hi float64
	for i, h := range after {
		d := float64(h.Dispatched)
		if i < len(before) {
			d -= float64(before[i].Dispatched)
		}
		sum += d
		hi = max(hi, d)
	}
	if sum == 0 {
		return 0
	}
	return hi / (sum / float64(len(after)))
}
