package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"

	"polardraw/internal/geom"
)

// stepFullScan is the Viterbi step as it was before relaxBounded: every
// active source is relaxed and every touched cell scored, however wide
// the beam. It is kept verbatim as the reference the bound-pruned step
// must reproduce bit for bit (DecodeStats.TopKPruned excepted).
func (v *viterbiState) stepFullScan(ev stepEvidence) {
	g, cfg := v.g, v.cfg
	sc := g.scratch()
	cur, arg := sc.cur, sc.arg
	negInf := math.Inf(-1)
	touched := sc.touched[:0]
	var stencil []stencilEntry
	if cfg.DisableStencilCache {
		sc.stencil = g.buildStencil(ev, sc.stencil[:0])
		stencil = sc.stencil
	} else if st, hit := g.stencilFor(ev); hit {
		v.stencilHits++
		stencil = st
	} else {
		v.stencilMisses++
		stencil = st
	}
	r := g.stencilRadius(ev)
	hypOn := !cfg.DisableHyperbola && !math.IsNaN(ev.dphi)
	useRadial := ev.haveDL && cfg.UseRadialSolve
	// Radial displacement prior spread: per-antenna path-length
	// noise amplified by the solve's conditioning, in metres.
	const radialSigma = 0.005
	invVar := 1 / (2 * radialSigma * radialSigma)
	for j, from := range v.active {
		base := v.score[j]
		fx, fy := from%g.nx, from/g.nx
		var dExp geom.Vec2
		radialOK := false
		if useRadial {
			if d, ok := g.radialDisplacement(from, ev.dl1, ev.dl2); ok {
				// Noise can inflate the solve beyond physical
				// bounds; cap at the annulus.
				if n := d.Norm(); n > ev.dMax*1.5 {
					d = d.Scale(ev.dMax * 1.5 / n)
				}
				dExp = d
				radialOK = true
			}
		}
		if !radialOK && fx >= r && fx < g.nx-r && fy >= r && fy < g.ny-r {
			// Interior fast path: every stencil offset stays on the
			// board, so the bounds arithmetic drops out of the scan.
			for _, st := range stencil {
				to := from + int(st.off)
				score := base + st.score
				if c := cur[to]; score > c {
					if c == negInf {
						touched = append(touched, int32(to))
					}
					cur[to] = score
					arg[to] = int32(j)
				}
			}
			continue
		}
		for _, st := range stencil {
			x, y := fx+int(st.dx), fy+int(st.dy)
			if x < 0 || x >= g.nx || y < 0 || y >= g.ny {
				continue
			}
			to := y*g.nx + x
			score := base + st.score
			if radialOK {
				ddx := float64(st.dx)*g.cell - dExp.X
				ddy := float64(st.dy)*g.cell - dExp.Y
				score -= (ddx*ddx + ddy*ddy) * invVar
			}
			if c := cur[to]; score > c {
				if c == negInf {
					touched = append(touched, int32(to))
				}
				cur[to] = score
				arg[to] = int32(j)
			}
		}
	}
	// The Eq. 11 hyperbola term depends only on the destination cell,
	// so it cannot change which predecessor wins: apply it after the
	// argmax, once per written cell, instead of once per transition
	// (or, as the dense reference does, once per grid cell).
	if hypOn {
		for _, i := range touched {
			cur[i] += g.hyperbolaAt(int(i), ev.dphi)
		}
	}
	maxCur := negInf
	for _, i := range touched {
		if s := cur[i]; s > maxCur {
			maxCur = s
		}
	}
	if maxCur == negInf {
		// Every path died (all evidence contradictory): hold position
		// by carrying the previous distribution forward, each cell its
		// own predecessor. (No cell was written, so touched is empty
		// here.)
		for j, i := range v.active {
			cur[i] = v.score[j]
			arg[i] = int32(j)
			touched = append(touched, int32(i))
		}
		maxCur = v.maxPrev
	}
	// Beam prune: only touched cells can be finite. Survivors are
	// marked in the bitmap; everything else clears back to -Inf.
	mask := sc.mask
	live := 0
	if thr, kEff, surv, bounded := v.topKSelect(sc, touched, maxCur); bounded {
		// Count bound composed with the window prune: keep states
		// strictly above the K-th survivor score; boundary ties fill
		// the remaining slots in ascending cell order, matching the
		// dense pass's lowest-index-wins tie-breaking. Everything else
		// (window-pruned or below the cut) clears to -Inf.
		nAbove := 0
		ties := sc.ties[:0]
		for _, i := range touched {
			switch s := cur[i]; {
			case s > thr:
				mask[i>>6] |= 1 << (uint(i) & 63)
				nAbove++
			case s == thr:
				ties = append(ties, i)
			default:
				cur[i] = negInf
			}
		}
		slices.Sort(ties)
		for j, i := range ties {
			if j < kEff-nAbove {
				mask[i>>6] |= 1 << (uint(i) & 63)
			} else {
				cur[i] = negInf
			}
		}
		sc.ties = ties
		v.topkPruned += uint64(surv - kEff)
		live = nAbove + min(len(ties), kEff-nAbove)
	} else {
		for _, i := range touched {
			if cur[i] > maxCur-beamWidth {
				mask[i>>6] |= 1 << (uint(i) & 63)
				live++
			} else {
				cur[i] = negInf
			}
		}
	}
	// Rebuild the beam from the bitmap, ascending, so the next step's
	// transition scan (and hence every tie-break) is identical to a
	// dense full-grid pass. The scan above was the last read of the old
	// beam, so its buffers take the new one — unless they are wider
	// than the count bound (the prior's support after the first step),
	// which the collector takes instead. Each survivor's score moves
	// out of cur, leaving the scratch all -Inf again, and the same pass
	// fills this time's beam record.
	active, score := v.active[:0], v.score[:0]
	if c := v.recordBound(); cap(active) < live || c > 0 && cap(active) > c {
		active = make([]int, 0, max(live, c))
		score = make([]float64, 0, max(live, c))
	}
	rec := v.newRecord(live)
	cells, pred := rec.cells, rec.pred
	for w, bs := range mask {
		if bs == 0 {
			continue
		}
		mask[w] = 0
		base := w << 6
		for bs != 0 {
			i := base + bits.TrailingZeros64(bs)
			active = append(active, i)
			score = append(score, cur[i])
			cur[i] = negInf
			cells = append(cells, int32(i))
			pred = append(pred, arg[i])
			bs &= bs - 1
		}
	}
	sc.touched = touched
	g.scratchPool.Put(sc)
	v.active, v.score = active, score
	v.maxPrev = maxCur
	v.back = append(v.back, beamRecord{cells: cells, pred: pred})
	v.steps++
	v.activeSum += uint64(len(active))
	if len(active) > v.activePeak {
		v.activePeak = len(active)
	}
}

// requireSameDecoder fails unless got holds the state want does, bit
// for bit: the beam with its scores and anchor, the count bound, every
// beam record and the committed prefix. The bound-pruned step never
// scores the states it proves cannot survive, so its TopKPruned may
// only be lower.
func requireSameDecoder(t *testing.T, what string, got, want *viterbiState) {
	t.Helper()
	if !slices.Equal(got.active, want.active) {
		t.Fatalf("%s: active lists differ (%d vs %d cells)", what, len(got.active), len(want.active))
	}
	for j := range got.score {
		if math.Float64bits(got.score[j]) != math.Float64bits(want.score[j]) {
			t.Fatalf("%s: score of cell %d is %v, want %v", what, got.active[j], got.score[j], want.score[j])
		}
	}
	if math.Float64bits(got.maxPrev) != math.Float64bits(want.maxPrev) {
		t.Fatalf("%s: maxPrev %v, want %v", what, got.maxPrev, want.maxPrev)
	}
	if got.kCur != want.kCur || got.steps != want.steps || got.commitT != want.commitT ||
		got.forced != want.forced || got.mergeCommits != want.mergeCommits {
		t.Fatalf("%s: kCur/steps/commitT/forced/merges %d/%d/%d/%d/%d, want %d/%d/%d/%d/%d", what,
			got.kCur, got.steps, got.commitT, got.forced, got.mergeCommits,
			want.kCur, want.steps, want.commitT, want.forced, want.mergeCommits)
	}
	if len(got.back) != len(want.back) {
		t.Fatalf("%s: %d beam records, want %d", what, len(got.back), len(want.back))
	}
	for k := range got.back {
		g, w := got.back[k], want.back[k]
		if !slices.Equal(g.cells, w.cells) || !slices.Equal(g.pred, w.pred) {
			t.Fatalf("%s: beam record %d differs", what, k)
		}
	}
	if !slices.Equal(got.committed, want.committed) {
		t.Fatalf("%s: committed prefixes differ", what)
	}
	if got.topkPruned > want.topkPruned {
		t.Fatalf("%s: TopKPruned %d above the full scan's %d", what, got.topkPruned, want.topkPruned)
	}
}

// lockstepFullScan steps got with the production step and want with
// stepFullScan over evs, committing with the given lag after each step,
// and requires identical state and commits throughout. It returns
// whether the bound fired on the first step (the full scan counted
// states there that the bounded step never scored).
func lockstepFullScan(t *testing.T, name string, got, want *viterbiState, evs []stepEvidence, lag int) bool {
	t.Helper()
	requireSameDecoder(t, name+" seed", got, want)
	fired := false
	for k, ev := range evs {
		got.step(ev)
		want.stepFullScan(ev)
		if k == 0 {
			fired = got.topkPruned < want.topkPruned
		}
		gs, gc := got.advanceCommit(lag)
		ws, wc := want.advanceCommit(lag)
		if gs != ws || !slices.Equal(gc, wc) {
			t.Fatalf("%s step %d: committed %d cells from %d, want %d from %d", name, k, len(gc), gs, len(wc), ws)
		}
		requireSameDecoder(t, fmt.Sprintf("%s step %d", name, k), got, want)
	}
	if !slices.Equal(got.path(), want.path()) {
		t.Fatalf("%s: decoded paths differ", name)
	}
	return fired
}

// boundConfigs are the decoder configurations the bound-pruned step is
// checked under: count bounds from 1 to the serving default, the
// adaptive controller, the radial displacement prior and the
// hyperbola term switched off.
var boundConfigs = []struct {
	name string
	mod  func(*Config)
}{
	{"k1", func(c *Config) { c.BeamTopK = 1 }},
	{"k2", func(c *Config) { c.BeamTopK = 2 }},
	{"k64", func(c *Config) { c.BeamTopK = 64 }},
	{"k192", func(c *Config) { c.BeamTopK = DefaultBeamTopK }},
	{"adaptive", func(c *Config) { c.BeamTopK = 64; c.BeamAdaptive = true }},
	{"radial", func(c *Config) { c.BeamTopK = DefaultBeamTopK; c.UseRadialSolve = true }},
	{"no-hyperbola", func(c *Config) { c.BeamTopK = DefaultBeamTopK; c.DisableHyperbola = true }},
}

// TestBoundedStepMatchesFullScan locksteps the production decoder
// against stepFullScan over real letter evidence and requires
// bit-identical beams, scores, records and commits at every step, under
// every boundConfigs entry, from the hyperbolic prior and from a
// uniform one (a spurious first window, where every source ties).
func TestBoundedStepMatchesFullScan(t *testing.T) {
	const lag = 16
	for li, letter := range "AMQRSZ" {
		for _, bc := range boundConfigs {
			name := string(letter) + " " + bc.name
			g, cfg, init, evs := letterEvidence(t, letter, uint64(li+1), bc.mod)
			if !lockstepFullScan(t, name, g.seedViterbi(cfg, init), g.seedViterbi(cfg, init), evs, lag) {
				t.Errorf("%s: the first step scored every state the full scan did; the bound never fired", name)
			}
			uniform := make([]float64, g.size())
			lockstepFullScan(t, name+" uniform", g.seedViterbi(cfg, uniform), g.seedViterbi(cfg, uniform), evs, lag)
		}
	}
}

// TestBoundedStepFromRestoredSeed takes the first step from a beam
// restored out of a time-0 snapshot (the prior's whole support, with
// the count bound not yet set) and requires the bound-pruned step to
// match the full scan from there on.
func TestBoundedStepFromRestoredSeed(t *testing.T) {
	for li, letter := range "AMQRSZ" {
		for _, bc := range boundConfigs {
			name := string(letter) + " " + bc.name + " restored"
			_, cfg, _, evs := letterEvidence(t, letter, uint64(li+1), bc.mod)
			cfg.CommitLag = 16
			samples, _ := synthSamples(t, letter, uint64(li+1))
			tr := New(cfg)
			st := tr.Stream()
			for _, s := range samples {
				if st.Windows() > 0 {
					break
				}
				if err := st.Push(s); err != nil {
					t.Fatal(err)
				}
			}
			if st.vit == nil || st.vit.steps != 0 {
				t.Fatalf("%s: no time-0 decoder to snapshot", name)
			}
			snap, err := st.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			got, err := tr.RestoreStream(snap)
			if err != nil {
				t.Fatal(err)
			}
			want, err := tr.RestoreStream(snap)
			if err != nil {
				t.Fatal(err)
			}
			lockstepFullScan(t, name, got.vit, want.vit, evs, cfg.CommitLag)
		}
	}
}

// TestCountBoundMaxCoversAdaptK requires countBoundMax to bound every K
// the adaptive controller can return from each controller state, and
// to equal some such K, so phase 1 of the bounded step never selects
// fewer sources than the prune may keep.
func TestCountBoundMaxCoversAdaptK(t *testing.T) {
	for _, base := range []int{1, 2, 3, 4, 16, 64, DefaultBeamTopK} {
		cfg := Config{BeamTopK: base, BeamAdaptive: true}
		kMax := max(4*base, 16)
		for kCur := 0; kCur <= kMax; kCur++ {
			v := &viterbiState{cfg: cfg, kCur: kCur}
			bound := v.countBoundMax()
			hit := false
			for _, nClose := range []int{0, kCur / 8, kCur / 4, kCur / 2, kCur, kCur + 1, 1 << 20} {
				w := &viterbiState{cfg: cfg, kCur: kCur}
				k := w.adaptK(nClose)
				if k > bound {
					t.Fatalf("BeamTopK %d, kCur %d, nClose %d: adaptK %d above countBoundMax %d", base, kCur, nClose, k, bound)
				}
				hit = hit || k == bound
			}
			if !hit {
				t.Fatalf("BeamTopK %d, kCur %d: countBoundMax %d is not a K adaptK returns", base, kCur, bound)
			}
		}
	}
}
