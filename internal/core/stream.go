package core

import (
	"errors"

	"polardraw/internal/geom"
	"polardraw/internal/reader"
)

// ErrFinalized is returned by Push after Finalize has been called.
var ErrFinalized = errors.New("core: stream tracker already finalized")

// StreamTracker is the incremental form of the Fig. 5 pipeline: it
// accepts raw samples one at a time (or in small batches), maintains
// the windowing, spurious-rejection, direction-estimation, and decoder
// state online, and exposes a live position estimate after every
// closed window. Finalize reproduces the batch Track result exactly —
// the same samples pushed in time order yield a bit-identical Result —
// unless Config.CommitLag forces a commit (the bounded-memory decode
// freezes its prefix at the lag, which may deviate from what the
// unbounded Viterbi pass would decide with hindsight; the committed
// prefix always remains a prefix of Finalize's own trajectory).
//
// Samples must arrive in non-decreasing bucket order (the order every
// reader and LLRP stream produces); a sample belonging to an
// already-closed window is dropped and counted, never applied.
//
// A StreamTracker is not safe for concurrent use; callers that share
// one across goroutines (see internal/session) must serialize access.
type StreamTracker struct {
	cfg  Config
	grid *grid

	// OnWindow, when set before the first Push, is invoked after each
	// valid window closes with the window and the decoder's live
	// (filtering) position estimate.
	OnWindow func(w Window, live geom.Vec2)

	// OnCommit, when set before the first Push, receives committed
	// trajectory segments from the fixed-lag Viterbi smoother: seg
	// holds the decided path points (grid-cell centres, before the
	// Eq. 10 rotation correction Finalize applies) for window indices
	// start..start+len(seg)-1. Segments are contiguous,
	// non-overlapping, and final: their concatenation is always a
	// prefix of the uncorrected Finalize trajectory. Commits fire
	// whenever all surviving decoder paths merge; when
	// Config.CommitLag > 0 they are additionally forced so no more
	// than CommitLag windows stay undecided. Viterbi only (ignored
	// under GreedyDecode).
	OnCommit func(start int, seg geom.Polyline)

	started bool
	startT  float64
	openIdx int
	open    windowAcc

	windows  []Window // closed valid windows, in order
	spurious int
	received int
	dropped  int

	eb  *evidenceBuilder
	vit *viterbiState
	gre *greedyState

	finalized bool
	result    *Result
	ferr      error
}

// windowAcc accumulates one open preprocessing window.
type windowAcc struct {
	rssSum [2]float64
	phases [2][]float64
	count  [2]int
}

func (a *windowAcc) reset() {
	a.rssSum = [2]float64{}
	a.count = [2]int{}
	// Keep the phase buffers' capacity: the next window reuses them.
	a.phases[0] = a.phases[0][:0]
	a.phases[1] = a.phases[1][:0]
}

// Stream returns a StreamTracker sharing this tracker's configuration
// and precomputed HMM grid. The grid is immutable after construction,
// so any number of streams may run concurrently over one Tracker.
func (tr *Tracker) Stream() *StreamTracker {
	return tr.StreamWith(tr.cfg)
}

// StreamWith returns a StreamTracker that decodes with cfg in place of
// the tracker's own configuration, while still sharing the tracker's
// precomputed HMM grid — the mechanism behind per-session decode
// options in the serving tier. Only stream-level parameters may differ
// between streams on one tracker (Window, SpuriousPhase, VMax,
// BeamTopK, BeamAdaptive, CommitLag, the ablation switches): the
// grid-level fields (Antennas, BoardMin/BoardMax, CellSize, Lambda)
// are forced back to the tracker's values, because the shared grid
// embodies them and a stream cannot change them.
func (tr *Tracker) StreamWith(cfg Config) *StreamTracker {
	cfg = cfg.withDefaults()
	cfg.Antennas = tr.cfg.Antennas
	cfg.BoardMin, cfg.BoardMax = tr.cfg.BoardMin, tr.cfg.BoardMax
	cfg.CellSize = tr.cfg.CellSize
	cfg.Lambda = tr.cfg.Lambda
	return &StreamTracker{
		cfg:  cfg,
		grid: tr.grid,
		eb:   newEvidenceBuilder(cfg),
	}
}

// Push feeds samples into the pipeline, closing windows and advancing
// the decoder as their time spans complete. It returns ErrFinalized
// after Finalize.
func (s *StreamTracker) Push(samples ...reader.Sample) error {
	if s.finalized {
		return ErrFinalized
	}
	for _, smp := range samples {
		s.received++
		if !s.started {
			s.started = true
			s.startT = smp.T
		}
		i := int((smp.T - s.startT) / s.cfg.Window)
		if i < s.openIdx {
			// Belongs to a window that already closed.
			s.dropped++
			continue
		}
		if i > s.openIdx {
			s.closeOpen()
			// Skipped buckets are empty, hence invalid, hence dropped —
			// exactly as batch preprocess drops them.
			s.openIdx = i
		}
		a := smp.Antenna
		if a < 0 || a > 1 {
			continue // tracker is strictly two-antenna
		}
		s.open.rssSum[a] += smp.RSS
		s.open.phases[a] = append(s.open.phases[a], smp.Phase)
		s.open.count[a]++
	}
	return nil
}

// closeOpen finalizes the currently open window: averages it, flags
// spurious phase jumps against the previous valid window, feeds the
// evidence builder, and advances the decoder.
func (s *StreamTracker) closeOpen() {
	acc := &s.open
	valid := acc.count[0] > 0 && acc.count[1] > 0
	if !valid {
		acc.reset()
		return
	}
	w := Window{T: s.startT + (float64(s.openIdx)+0.5)*s.cfg.Window, Valid: true}
	for a := 0; a < 2; a++ {
		w.RSS[a] = acc.rssSum[a] / float64(acc.count[a])
		if s.cfg.ArithmeticPhaseMean {
			var sum float64
			for _, p := range acc.phases[a] {
				sum += p
			}
			w.Phase[a] = sum / float64(acc.count[a])
		} else {
			w.Phase[a] = geom.CircularMean(acc.phases[a])
		}
		w.Count[a] = acc.count[a]
	}
	acc.reset()

	if n := len(s.windows); n > 0 {
		prev := s.windows[n-1]
		for a := 0; a < 2; a++ {
			if geom.AngleDist(prev.Phase[a], w.Phase[a]) > s.cfg.SpuriousPhase {
				w.Spurious[a] = true
				s.spurious++
			}
		}
	}
	s.windows = append(s.windows, w)

	k := len(s.windows) - 1
	if k == 0 {
		// First valid window: seed the decoder with the section 3.5
		// hyperbolic-positioning prior.
		init := s.grid.initialDistribution(s.cfg, interPhaseDiff(s.windows, 0))
		if s.cfg.GreedyDecode {
			s.gre = s.grid.newGreedyState(s.cfg, init)
		} else {
			s.vit = s.grid.seedViterbi(s.cfg, init)
		}
		s.grid.putPrior(init)
	} else {
		ev := s.eb.step(s.windows, k)
		if s.cfg.GreedyDecode {
			s.gre.step(ev)
		} else {
			s.vit.step(ev)
		}
	}
	if s.vit != nil && (s.cfg.CommitLag > 0 || s.OnCommit != nil) {
		start, cells := s.vit.advanceCommit(s.cfg.CommitLag)
		if len(cells) > 0 && s.OnCommit != nil {
			seg := make(geom.Polyline, len(cells))
			for i, c := range cells {
				seg[i] = s.grid.center(int(c))
			}
			s.OnCommit(start, seg)
		}
	}
	if s.OnWindow != nil {
		live, _ := s.Latest()
		s.OnWindow(w, live)
	}
}

// Latest returns the decoder's current position estimate (the
// maximum-probability cell after the windows closed so far). The
// second return is false before the first valid window closes.
func (s *StreamTracker) Latest() (geom.Vec2, bool) {
	switch {
	case s.vit != nil:
		return s.grid.center(s.vit.best()), true
	case s.gre != nil:
		return s.grid.center(s.gre.cur), true
	default:
		return geom.Vec2{}, false
	}
}

// DecodeStats snapshots the Viterbi decoder's telemetry (active-set
// size, adaptive beam bound, commit counts, stencil-cache hits). It
// returns the zero value before the first valid window closes or under
// GreedyDecode. Like Push, it must be serialized with the tracker's
// other methods by the caller.
func (s *StreamTracker) DecodeStats() DecodeStats {
	if s.vit == nil {
		return DecodeStats{}
	}
	return s.vit.decodeStats()
}

// Received returns the number of samples pushed so far.
func (s *StreamTracker) Received() int { return s.received }

// Dropped returns the number of late samples discarded because their
// window had already closed.
func (s *StreamTracker) Dropped() int { return s.dropped }

// Windows returns the number of valid windows closed so far (the open
// window, if any, is not counted until its span completes).
func (s *StreamTracker) Windows() int { return len(s.windows) }

// Finalize flushes the open window, decodes the full trajectory, and
// returns the same Result the batch Track would produce for the
// complete sample stream. Subsequent calls return the cached result;
// subsequent Pushes fail with ErrFinalized.
func (s *StreamTracker) Finalize() (*Result, error) {
	if s.finalized {
		return s.result, s.ferr
	}
	if s.started {
		s.closeOpen()
	}
	s.finalized = true
	if len(s.windows) < 2 {
		s.ferr = ErrTooFewSamples
		return nil, s.ferr
	}
	var path []int
	if s.cfg.GreedyDecode {
		path = append([]int(nil), s.gre.path...)
	} else {
		path = s.vit.path()
	}
	s.result = s.eb.finish(s.grid, s.windows, path, s.spurious)
	return s.result, nil
}
