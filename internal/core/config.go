// Package core implements PolarDraw's tracking pipeline (sections 3.1
// through 3.5 of the paper): pre-processing of the raw RFID samples,
// rotational and translational movement-direction estimation from the
// two differently-polarized antennas, phase-based movement-distance
// estimation, and the HMM/Viterbi trajectory decoder that fuses them.
package core

import (
	"polardraw/internal/geom"
	"polardraw/internal/rf"
)

// DefaultCommitLag is the fixed-lag smoothing depth serving
// deployments should start from, chosen by the forced-commit accuracy
// study (internal/experiment's TestForcedCommitLagAccuracy): across
// the letter corpus, mean trajectory error at lag 64 is within ~1 cm
// of the unbounded decoder (4.1 cm vs 3.3 cm), whereas lag 32 already
// costs ~2.3 cm — the forced commit starts freezing the prefix before
// the Eq. 10 sector correction has disambiguated it. Resident decoder
// memory stays O(DefaultCommitLag) beam records.
// Config.CommitLag zero still means unbounded — bounded-lag serving is
// an explicit choice.
const DefaultCommitLag = 64

// DefaultBeamTopK is the count bound serving deployments should start
// from, chosen by the top-K beam accuracy study (internal/experiment's
// TestBeamTopKAccuracy): across the letter corpus, mean trajectory
// error at K = 192 matches the window-only beam to well under the
// 0.5 cm bound, while the active set shrinks from ~70% of the grid on
// noisy evidence to at most K states — which is what makes the sparse
// decoder's per-step cost beam-bound instead of grid-bound.
// Config.BeamTopK zero still means window-only pruning — count-bounded
// serving is an explicit choice.
const DefaultBeamTopK = 192

// Config parameterizes the tracker. Zero values take the paper's
// defaults (see DESIGN.md for the parameter provenance table).
type Config struct {
	// Antennas are the two linearly polarized reader antennas; their
	// PolAngle fields define gamma.
	Antennas [2]rf.Antenna
	// Lambda is the carrier wavelength in metres (default: the
	// simulator's UHF default).
	Lambda float64
	// Board is the state space of the HMM: the writing block bounds,
	// metres. Zero means a 0.56 x 0.25 block with 5 cm margins.
	BoardMin, BoardMax geom.Vec2
	// CellSize is the HMM block size, metres (default 5 mm).
	CellSize float64

	// Window is the averaging window of section 3.1, seconds
	// (default 0.05).
	Window float64
	// SpuriousPhase is the adjacent-window phase-jump rejection
	// threshold, radians (default 0.2).
	SpuriousPhase float64
	// ModeDelta is the RSS change that flags a rotation-dominated
	// window, dB (default 2; section 3.3 footnote 4).
	ModeDelta float64
	// StepDelta is the RSS change that advances the azimuth estimate,
	// dB (default 1.5; Eq. 4).
	StepDelta float64
	// DeltaBeta is the per-window azimuth step, radians (default 6
	// degrees; Eq. 4).
	DeltaBeta float64
	// Elevation is the assumed constant pen elevation alpha_e
	// (default 30 degrees; section 5.4.1).
	Elevation float64
	// VMax is the maximum pen speed, m/s (default 0.2; section 3.4).
	VMax float64

	// BeamTopK bounds the active Viterbi beam by count: after the
	// log-window prune (beamWidth), only the BeamTopK highest-scoring
	// states survive a step, selected by partial selection with
	// deterministic tie-breaking (equal scores at the cut keep the
	// lowest cell indices, matching the decoder's ascending active
	// order). 0 (the default) keeps today's window-only behaviour,
	// which is bit-identical to the dense reference decoder; see
	// DefaultBeamTopK for the serving recommendation.
	BeamTopK int
	// BeamAdaptive enables the adaptive top-K controller (requires
	// BeamTopK > 0): when the beam is ambiguous — many states score
	// within a small margin of the per-step maximum — the effective K
	// widens (up to 4x BeamTopK) so the true path is not cut; when the
	// beam is confident it narrows (down to BeamTopK/4) and the decode
	// gets cheaper. The controller is part of the decoder state, so
	// streamed and batch decodes evolve it identically.
	BeamAdaptive bool

	// DisableStencilCache turns off the shared per-grid stencil cache
	// and rebuilds the annulus/direction stencil per step per session
	// (the pre-cache behaviour). The cache is exact-keyed on the
	// evidence values the stencil depends on, so decoded trajectories
	// are bit-identical either way; the switch exists for the
	// equivalence suite and for memory-constrained single-session use.
	DisableStencilCache bool

	// CommitLag bounds the Viterbi smoothing lag of the streaming
	// decoder, in windows. When > 0, a StreamTracker commits the
	// trajectory prefix as soon as every surviving path agrees on it
	// (lossless) and force-commits along the current best path
	// whenever more than CommitLag windows remain undecided, so
	// resident decoder memory is O(CommitLag) beam records
	// instead of O(windows). 0 (the default) keeps the full unbounded
	// history; batch Track ignores the field. See StreamTracker.OnCommit.
	CommitLag int

	// Ablation switches (DESIGN.md "design choices"); all default to
	// the full PolarDraw behaviour.

	// DisablePolarization turns off rotational direction estimation
	// entirely: every window is treated as translational, and the
	// displacement machinery falls back to the paper's literal
	// section 3.3.2/3.4 evidence (Table 4 phase-trend directions,
	// annulus bounds, hyperbolas) without the radial displacement
	// solve. This is the Table 6 "w/o polarization" comparator.
	DisablePolarization bool
	// DisableHyperbola removes the inter-antenna phase-difference term
	// from the HMM emission (Eq. 11 keeps only the direction term).
	DisableHyperbola bool
	// GreedyDecode replaces Viterbi with per-step argmax.
	GreedyDecode bool
	// DisableSectorCorrection turns off the initial-azimuth correction
	// at sector boundary crossings (Fig. 10's "pre-correction").
	DisableSectorCorrection bool
	// ArithmeticPhaseMean averages window phases arithmetically
	// instead of circularly (ablation: breaks near the 0/2pi seam).
	ArithmeticPhaseMean bool
	// TestNoRotDir suppresses the movement-direction evidence derived
	// from rotational windows while keeping everything else (including
	// the mode switch). Diagnostic/ablation only.
	TestNoRotDir bool
	// UseRadialSolve adds a displacement prior from the 2x2 solve of
	// the two antennas' temporal path-length changes (Eq. 5 applied
	// per antenna). It is NOT part of the paper's pipeline and is off
	// by default: in the calibrated noise regime its squared-error
	// pull amplifies fade-corrupted phase deltas and degrades
	// end-to-end accuracy (see BenchmarkAblationRadial); it helps only
	// in unrealistically clean channels.
	UseRadialSolve bool
}

func defFloat(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

// withDefaults fills zero fields with the paper's parameter choices.
func (c Config) withDefaults() Config {
	c.Lambda = defFloat(c.Lambda, rf.Wavelength(rf.DefaultFrequency))
	c.CellSize = defFloat(c.CellSize, 0.005)
	c.Window = defFloat(c.Window, 0.05)
	c.SpuriousPhase = defFloat(c.SpuriousPhase, 0.2)
	c.ModeDelta = defFloat(c.ModeDelta, 2)
	c.StepDelta = defFloat(c.StepDelta, 1.5)
	c.DeltaBeta = defFloat(c.DeltaBeta, geom.Radians(6))
	c.Elevation = defFloat(c.Elevation, geom.Radians(30))
	c.VMax = defFloat(c.VMax, 0.2)
	if c.BoardMin == (geom.Vec2{}) && c.BoardMax == (geom.Vec2{}) {
		c.BoardMin = geom.Vec2{X: -0.05, Y: -0.05}
		c.BoardMax = geom.Vec2{X: 0.61, Y: 0.30}
	}
	return c
}

// Gamma returns the inter-antenna polarization half-angle implied by
// the two antennas' polarization axes (section 3.3's gamma).
func (c Config) Gamma() float64 {
	return geom.AxialDist(c.Antennas[0].PolAngle, c.Antennas[1].PolAngle) / 2
}
