package core

import (
	"errors"
	"math"

	"polardraw/internal/geom"
	"polardraw/internal/reader"
)

// Result is a recovered pen trajectory plus diagnostics.
type Result struct {
	// Trajectory is the decoded pen path, metres, one point per window.
	Trajectory geom.Polyline
	// Windows are the pre-processed observations that drove it.
	Windows []Window
	// Correction is the initial-azimuth error found at the first
	// sector boundary crossing (alpha_tilde of section 3.3.1), radians;
	// Eq. 10's trajectory rotation has already consumed it.
	Correction float64
	// RotationalWindows and TranslationalWindows count how each window
	// was classified by the section 3.3 mode switch.
	RotationalWindows, TranslationalWindows int
	// SpuriousRejected counts phase readings dropped by section 3.1.
	SpuriousRejected int
}

// ErrTooFewSamples is returned when the sample stream cannot fill even
// two valid windows.
var ErrTooFewSamples = errors.New("core: too few samples to track")

// Tracker is a configured PolarDraw pipeline.
type Tracker struct {
	cfg  Config
	grid *grid
}

// New builds a tracker. The configuration's zero fields take the
// paper's defaults.
func New(cfg Config) *Tracker {
	cfg = cfg.withDefaults()
	return &Tracker{cfg: cfg, grid: newGrid(cfg)}
}

// Config returns the tracker's effective (defaulted) configuration.
func (tr *Tracker) Config() Config { return tr.cfg }

// evidenceBuilder turns consecutive window pairs into stepEvidence,
// carrying the azimuth-estimation state and the window-classification
// counters across steps. Track and StreamTracker drive the same
// builder, so the evidence a stream produces is identical to a batch.
type evidenceBuilder struct {
	cfg        Config
	az         *azimuthTracker
	rot, trans int
}

func newEvidenceBuilder(cfg Config) *evidenceBuilder {
	return &evidenceBuilder{
		cfg: cfg,
		az:  &azimuthTracker{cfg: cfg, gamma: cfg.Gamma()},
	}
}

// step computes the evidence for the transition into window i (i >= 1)
// of ws, exactly as sections 3.3/3.4 prescribe.
func (eb *evidenceBuilder) step(ws []Window, i int) stepEvidence {
	cfg := eb.cfg
	ev := stepEvidence{dphi: interPhaseDiff(ws, i)}

	// Displacement bounds (section 3.4): the triangle-inequality
	// lower bound from the per-antenna path-length changes, and the
	// v_max upper bound.
	dt := ws[i].T - ws[i-1].T
	dl1 := phaseDelta(ws, i, 0) * cfg.Lambda / (4 * math.Pi)
	dl2 := phaseDelta(ws, i, 1) * cfg.Lambda / (4 * math.Pi)
	ev.dMin = math.Max(math.Abs(dl1), math.Abs(dl2))
	ev.dMax = cfg.VMax * dt
	if ev.dMin > ev.dMax {
		// Contradiction (noise): trust the hard speed bound.
		ev.dMin = ev.dMax
	}
	if !cfg.DisablePolarization &&
		!ws[i].Spurious[0] && !ws[i].Spurious[1] &&
		!ws[i-1].Spurious[0] && !ws[i-1].Spurious[1] {
		ev.dl1, ev.dl2, ev.haveDL = dl1, dl2, true
	}

	// Mode switch (section 3.3): rotation-dominated windows use the
	// polarization model; the rest use phase trends.
	ds1 := rssDelta(ws, i, 0)
	ds2 := rssDelta(ws, i, 1)
	rotational := !cfg.DisablePolarization &&
		math.Max(math.Abs(ds1), math.Abs(ds2)) > cfg.ModeDelta
	if rotational {
		eb.rot++
		alpha := eb.az.observe(ds1, ds2)
		_, dir := classifyRotation(ds1, ds2, rotNoiseFloor)
		if dir != RotNone && !cfg.TestNoRotDir {
			ev.dir = moveDirection(alpha, dir)
		}
	} else {
		// With DisablePolarization every window lands here: the
		// ablated system keeps only the phase evidence (Table 6's
		// comparator).
		eb.trans++
		dth1 := phaseDelta(ws, i, 0)
		dth2 := phaseDelta(ws, i, 1)
		ev.dir = translationDirection(dth1, dth2)
	}
	return ev
}

// finish assembles the Result from a decoded cell path: maps cells to
// board coordinates and applies the Eq. 10 initial-azimuth correction.
func (eb *evidenceBuilder) finish(g *grid, ws []Window, path []int, spurious int) *Result {
	res := &Result{
		Windows:              ws,
		RotationalWindows:    eb.rot,
		TranslationalWindows: eb.trans,
		SpuriousRejected:     spurious,
	}
	traj := make(geom.Polyline, len(path))
	for i, cell := range path {
		traj[i] = g.center(cell)
	}

	// Eq. 10: undo the rotation the initial-azimuth error imposed on
	// the decoded trajectory. Rotating about the centroid (rather than
	// the paper's implicit origin) applies the identical shape
	// correction with the least positional displacement.
	res.Correction = eb.az.correction
	if eb.az.corrected && eb.az.correction != 0 {
		origin := traj.Centroid()
		traj = traj.Translate(origin.Scale(-1)).Rotate(-eb.az.correction).Translate(origin)
	}
	res.Trajectory = traj
	return res
}

// Track runs the full pipeline of Fig. 5 on a raw two-antenna sample
// stream and returns the decoded trajectory.
func (tr *Tracker) Track(samples []reader.Sample) (*Result, error) {
	cfg := tr.cfg
	ws := preprocess(samples, cfg)
	if len(ws) < 2 {
		return nil, ErrTooFewSamples
	}

	spurious := 0
	for _, w := range ws {
		for a := 0; a < 2; a++ {
			if w.Spurious[a] {
				spurious++
			}
		}
	}

	eb := newEvidenceBuilder(cfg)
	evidence := make([]stepEvidence, 0, len(ws)-1)
	for i := 1; i < len(ws); i++ {
		evidence = append(evidence, eb.step(ws, i))
	}

	init := tr.grid.initialDistribution(cfg, interPhaseDiff(ws, 0))
	var path []int
	if cfg.GreedyDecode {
		path = tr.grid.greedy(cfg, init, evidence)
	} else {
		path = tr.grid.viterbi(cfg, init, evidence)
	}
	tr.grid.putPrior(init)
	return eb.finish(tr.grid, ws, path, spurious), nil
}
