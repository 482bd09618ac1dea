package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"polardraw/internal/geom"
)

// denseRef is the O(grid) reference form of the Viterbi forward pass:
// full-grid scratch clears, a full-grid transition scan, and the dense
// hyperbolaLog emission vector. The production decoder replaces all
// three with active-set machinery; these tests require it to
// reproduce the reference bit-for-bit.
type denseRef struct {
	g         *grid
	cfg       Config
	prev, cur []float64
	back      [][]int32
	hypBuf    []float64
	maxPrev   float64
}

func newDenseRef(g *grid, cfg Config, initLog []float64) *denseRef {
	d := &denseRef{g: g, cfg: cfg}
	d.prev = append([]float64(nil), initLog...)
	d.cur = make([]float64, g.size())
	d.maxPrev = math.Inf(-1)
	for _, p := range d.prev {
		if p > d.maxPrev {
			d.maxPrev = p
		}
	}
	for i, p := range d.prev {
		if p <= d.maxPrev-beamWidth {
			d.prev[i] = math.Inf(-1)
		}
	}
	return d
}

func (d *denseRef) step(ev stepEvidence) {
	g, cfg := d.g, d.cfg
	for i := range d.cur {
		d.cur[i] = math.Inf(-1)
	}
	bk := make([]int32, g.size())
	for i := range bk {
		bk[i] = -1
	}
	stencil := g.buildStencil(ev, nil)
	hyp := g.hyperbolaLog(cfg, ev, d.hypBuf)
	if hyp != nil {
		d.hypBuf = hyp
	}
	useRadial := ev.haveDL && cfg.UseRadialSolve
	const radialSigma = 0.005
	invVar := 1 / (2 * radialSigma * radialSigma)
	for from := 0; from < g.size(); from++ {
		base := d.prev[from]
		if math.IsInf(base, -1) {
			continue
		}
		fx, fy := from%g.nx, from/g.nx
		var dExp geom.Vec2
		radialOK := false
		if useRadial {
			if dd, ok := g.radialDisplacement(from, ev.dl1, ev.dl2); ok {
				if n := dd.Norm(); n > ev.dMax*1.5 {
					dd = dd.Scale(ev.dMax * 1.5 / n)
				}
				dExp = dd
				radialOK = true
			}
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
			if score > d.cur[to] {
				d.cur[to] = score
				bk[to] = int32(from)
			}
		}
	}
	if hyp != nil {
		for i := range d.cur {
			if bk[i] >= 0 {
				d.cur[i] += hyp[i]
			}
		}
	}
	maxCur := math.Inf(-1)
	for _, s := range d.cur {
		if s > maxCur {
			maxCur = s
		}
	}
	if math.IsInf(maxCur, -1) {
		copy(d.cur, d.prev)
		for i := range bk {
			bk[i] = int32(i)
		}
		maxCur = d.maxPrev
	}
	for i, s := range d.cur {
		if s <= maxCur-beamWidth && !math.IsInf(s, -1) {
			d.cur[i] = math.Inf(-1)
		}
	}
	d.maxPrev = maxCur
	d.back = append(d.back, bk)
	d.prev, d.cur = d.cur, d.prev
}

func (d *denseRef) best() int {
	best := 0
	for i := 1; i < len(d.prev); i++ {
		if d.prev[i] > d.prev[best] {
			best = i
		}
	}
	return best
}

func (d *denseRef) path() []int {
	path := make([]int, len(d.back)+1)
	path[len(d.back)] = d.best()
	for t := len(d.back) - 1; t >= 0; t-- {
		b := d.back[t][path[t+1]]
		if b < 0 {
			b = int32(path[t+1])
		}
		path[t] = int(b)
	}
	return path
}

// denseView expands the decoder's beam (active cells with their
// scores) into a grid-sized probability vector, -Inf outside the beam,
// so the sparse decoder can be checked against the dense reference
// cell by cell.
func (v *viterbiState) denseView() []float64 {
	out := make([]float64, v.g.size())
	for i := range out {
		out[i] = math.Inf(-1)
	}
	for j, i := range v.active {
		out[i] = v.score[j]
	}
	return out
}

// letterEvidence replays the Fig. 5 pipeline up to the decoder for one
// synthesized letter, returning the grid, evidence steps, and initial
// distribution the decoder would see.
func letterEvidence(t *testing.T, letter rune, seed uint64, mod func(*Config)) (*grid, Config, []float64, []stepEvidence) {
	t.Helper()
	samples, ants := synthSamples(t, letter, seed)
	cfg := Config{Antennas: ants}
	if mod != nil {
		mod(&cfg)
	}
	cfg = cfg.withDefaults()
	g := newGrid(cfg)
	ws := preprocess(samples, cfg)
	if len(ws) < 2 {
		t.Fatalf("letter %c produced %d windows", letter, len(ws))
	}
	eb := newEvidenceBuilder(cfg)
	evs := make([]stepEvidence, 0, len(ws)-1)
	for i := 1; i < len(ws); i++ {
		evs = append(evs, eb.step(ws, i))
	}
	return g, cfg, g.initialDistribution(cfg, interPhaseDiff(ws, 0)), evs
}

// TestSparseDecoderMatchesDenseReference locksteps the production
// decoder against the dense reference over real letter evidence,
// requiring bit-identical probability vectors, filtering estimates,
// and decoded paths at every step.
func TestSparseDecoderMatchesDenseReference(t *testing.T) {
	cases := []struct {
		name   string
		letter rune
		seed   uint64
		mod    func(*Config)
	}{
		{name: "default", letter: 'Z', seed: 1},
		{name: "no-hyperbola", letter: 'A', seed: 2,
			mod: func(c *Config) { c.DisableHyperbola = true }},
		{name: "no-polarization", letter: 'M', seed: 3,
			mod: func(c *Config) { c.DisablePolarization = true }},
		{name: "radial-solve", letter: 'S', seed: 4,
			mod: func(c *Config) { c.UseRadialSolve = true }},
		// BeamTopK = 0 must stay bit-identical to the dense reference
		// with the stencil cache either on (default) or off: the cache
		// is exact-keyed, so it may never change a single bit.
		{name: "stencil-cache-off", letter: 'C', seed: 5,
			mod: func(c *Config) { c.DisableStencilCache = true }},
		// A count bound at least as large as the grid can never cut a
		// window survivor, so the top-K machinery must also be
		// bit-identical to the dense reference.
		{name: "topk-above-grid", letter: 'O', seed: 6,
			mod: func(c *Config) { c.BeamTopK = 1 << 20 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, cfg, init, evs := letterEvidence(t, tc.letter, tc.seed, tc.mod)
			v := g.seedViterbi(cfg, init)
			d := newDenseRef(g, cfg, init)
			for k, ev := range evs {
				v.step(ev)
				d.step(ev)
				vd := v.denseView()
				for i := range d.prev {
					if vd[i] != d.prev[i] {
						t.Fatalf("step %d: prob[%d] sparse %v, dense %v",
							k, i, vd[i], d.prev[i])
					}
				}
				if v.best() != d.best() {
					t.Fatalf("step %d: best sparse %d, dense %d", k, v.best(), d.best())
				}
				if len(v.active) == 0 {
					t.Fatalf("step %d: empty active set", k)
				}
				for j := 1; j < len(v.active); j++ {
					if v.active[j] <= v.active[j-1] {
						t.Fatalf("step %d: active list not ascending at %d", k, j)
					}
				}
			}
			vp, dp := v.path(), d.path()
			if len(vp) != len(dp) {
				t.Fatalf("path length sparse %d, dense %d", len(vp), len(dp))
			}
			for i := range vp {
				if vp[i] != dp[i] {
					t.Fatalf("path[%d]: sparse %d, dense %d", i, vp[i], dp[i])
				}
			}
		})
	}
}

// TestStepScratchSharedAcrossDecoders interleaves the steps and merge
// walks of two decoders on one grid, so each borrows the step scratch
// the other just returned, and requires both to match decoders running
// alone on grids of their own, step by step. Any state a step left in
// the pooled scratch would show up here as a divergence.
func TestStepScratchSharedAcrossDecoders(t *testing.T) {
	// A window-only beam, and a count bound narrow enough for merge
	// commits to fire (see README, "Memory").
	for _, k := range []int{0, 32} {
		mod := func(c *Config) { c.BeamTopK = k }
		g, cfg, initA, evsA := letterEvidence(t, 'W', 7, mod)
		gB, _, initB, evsB := letterEvidence(t, 'S', 8, mod)
		a, b := g.seedViterbi(cfg, initA), g.seedViterbi(cfg, initB)
		refA, refB := newGrid(cfg).seedViterbi(cfg, initA), gB.seedViterbi(cfg, initB)
		const lag = 6
		for s := 0; s < min(len(evsA), len(evsB)); s++ {
			for _, p := range []struct {
				name   string
				v, ref *viterbiState
				ev     stepEvidence
			}{{"A", a, refA, evsA[s]}, {"B", b, refB, evsB[s]}} {
				p.v.step(p.ev)
				p.ref.step(p.ev)
				vd, rd := p.v.denseView(), p.ref.denseView()
				for i := range rd {
					if vd[i] != rd[i] {
						t.Fatalf("K=%d %s step %d: prob[%d] shared %v, alone %v", k, p.name, s, i, vd[i], rd[i])
					}
				}
				vs, vc := p.v.advanceCommit(lag)
				rs, rc := p.ref.advanceCommit(lag)
				if vs != rs || !slices.Equal(vc, rc) {
					t.Fatalf("K=%d %s step %d: commit %d%v shared, %d%v alone", k, p.name, s, vs, vc, rs, rc)
				}
			}
		}
		if k > 0 && a.mergeCommits+b.mergeCommits == 0 {
			t.Fatalf("K=%d: no merge commit, so the merge walk's shared marks went unexercised", k)
		}
	}
}

// TestSparseDecoderHoldFallback drives both decoders through evidence
// no transition can satisfy (the hold-position fallback) and requires
// identical recovery.
func TestSparseDecoderHoldFallback(t *testing.T) {
	cfg := gridCfg()
	g := newGrid(cfg)
	init := g.initialDistribution(cfg, g.expDphi[g.index(geom.Vec2{X: 0.3, Y: 0.1})])
	v := g.seedViterbi(cfg, init)
	d := newDenseRef(g, cfg, init)
	evs := []stepEvidence{
		{dMin: 0.004, dMax: 0.008, dphi: math.NaN()},
		// A contradictory annulus (dMin > dMax, as raw noise can
		// produce) whose slack-widened band [dMin-0.4c, dMax+0.75c]
		// falls strictly between the representable step distances 0 and
		// one cell: no offset survives, so every path dies and the
		// decoders must hold position.
		{dMin: 0.0021, dMax: 0.00124, dphi: math.NaN()},
		{dMin: 0, dMax: 0.008, dphi: g.expDphi[g.index(geom.Vec2{X: 0.31, Y: 0.1})]},
	}
	for k, ev := range evs {
		v.step(ev)
		d.step(ev)
		vd := v.denseView()
		for i := range d.prev {
			if vd[i] != d.prev[i] {
				t.Fatalf("step %d: prob[%d] sparse %v, dense %v", k, i, vd[i], d.prev[i])
			}
		}
	}
	vp, dp := v.path(), d.path()
	for i := range vp {
		if vp[i] != dp[i] {
			t.Fatalf("path[%d]: sparse %d, dense %d", i, vp[i], dp[i])
		}
	}
	// Prove the fallback actually fired: a held step backtracks as a
	// self-loop, so the decoded path repeats across the dead step.
	if vp[2] != vp[1] {
		t.Fatalf("path %d -> %d across the dead step: hold-position branch was not exercised", vp[1], vp[2])
	}
}

// TestTopKSelectionMatchesSortedReference checks the count bound's
// selection semantics against a brute-force reference: after one step
// from a shared initial distribution (where the top-K and window-only
// decoders see identical pre-prune scores), the top-K beam must be
// exactly the K best window survivors ordered by (score desc, cell
// asc) — the same lowest-index-wins tie-breaking the dense pass uses —
// and the active list must stay ascending.
func TestTopKSelectionMatchesSortedReference(t *testing.T) {
	cases := []struct {
		letter rune
		seed   uint64
		k      int
	}{
		{'Z', 1, 64}, {'A', 2, 128}, {'M', 3, DefaultBeamTopK}, {'S', 4, 1},
	}
	for _, tc := range cases {
		g, cfg, init, evs := letterEvidence(t, tc.letter, tc.seed, nil)
		cfgK := cfg
		cfgK.BeamTopK = tc.k
		vw := g.seedViterbi(cfg, init)
		vk := g.seedViterbi(cfgK, init)
		vw.step(evs[0])
		vk.step(evs[0])

		type cand struct {
			cell  int
			score float64
		}
		cands := make([]cand, 0, len(vw.active))
		vwd := vw.denseView()
		for _, i := range vw.active {
			cands = append(cands, cand{i, vwd[i]})
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].score != cands[b].score {
				return cands[a].score > cands[b].score
			}
			return cands[a].cell < cands[b].cell
		})
		n := tc.k
		if n > len(cands) {
			n = len(cands)
		}
		want := make(map[int]float64, n)
		for _, c := range cands[:n] {
			want[c.cell] = c.score
		}
		vkd := vk.denseView()
		if len(vk.active) != n {
			t.Fatalf("%c k=%d: active %d, want %d", tc.letter, tc.k, len(vk.active), n)
		}
		for j, i := range vk.active {
			if j > 0 && i <= vk.active[j-1] {
				t.Fatalf("%c k=%d: active list not ascending at %d", tc.letter, tc.k, j)
			}
			s, ok := want[i]
			if !ok {
				t.Fatalf("%c k=%d: cell %d kept but not in the top-%d reference", tc.letter, tc.k, i, n)
			}
			if s != vkd[i] {
				t.Fatalf("%c k=%d: cell %d score %v, want %v", tc.letter, tc.k, i, vkd[i], s)
			}
		}
		// The first step starts from the prior's whole support, wider
		// than K, so the bound-pruned step never scores some of the
		// states the reference counts.
		pruned := vk.decodeStats().TopKPruned
		if pruned > uint64(len(cands)-n) {
			t.Fatalf("%c k=%d: TopKPruned %d, want at most %d", tc.letter, tc.k, pruned, len(cands)-n)
		}

		// A step from a beam no wider than K scores every state, so it
		// counts exactly the window survivors beyond K: the reference is
		// a window-only decoder stepping from the same beam.
		vw2 := g.seedViterbi(cfg, vk.denseView())
		vw2.step(evs[1])
		vk.step(evs[1])
		want2 := uint64(max(len(vw2.active)-tc.k, 0))
		if got := vk.decodeStats().TopKPruned - pruned; got != want2 {
			t.Fatalf("%c k=%d: second step TopKPruned %d, want %d", tc.letter, tc.k, got, want2)
		}
	}
}

// TestKthLargestMatchesSort pits the quickselect against a full sort
// over adversarial shapes (sorted, reversed, constant, heavy ties,
// random).
func TestKthLargestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := map[string]func(n int) []float64{
		"random": func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = rng.NormFloat64()
			}
			return s
		},
		"sorted": func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = float64(i)
			}
			return s
		},
		"reverse": func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = float64(n - i)
			}
			return s
		},
		"ties": func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = float64(i % 3)
			}
			return s
		},
		"const": func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = 4.2
			}
			return s
		},
	}
	for name, gen := range shapes {
		for _, n := range []int{1, 2, 7, 64, 501} {
			for _, k := range []int{1, 2, n / 2, n} {
				if k < 1 || k > n {
					continue
				}
				s := gen(n)
				sorted := append([]float64(nil), s...)
				sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
				if got, wnt := kthLargest(s, k), sorted[k-1]; got != wnt {
					t.Fatalf("%s n=%d k=%d: kthLargest %v, want %v", name, n, k, got, wnt)
				}
			}
		}
	}
}

// TestHoldFallbackUnderTopK drives the all-paths-died hold-position
// branch of viterbiState.step under a count-bounded beam (the
// window-only variant is covered against the dense reference by
// TestSparseDecoderHoldFallback): contradictory evidence must carry
// the previous beam forward unchanged, respect the count bound, and
// leave the decoder able to recover.
func TestHoldFallbackUnderTopK(t *testing.T) {
	cfg := gridCfg()
	cfg.BeamTopK = 8
	g := newGrid(cfg)
	init := g.initialDistribution(cfg, g.expDphi[g.index(geom.Vec2{X: 0.3, Y: 0.1})])
	v := g.seedViterbi(cfg, init)
	v.step(stepEvidence{dMin: 0.004, dMax: 0.008, dphi: math.NaN()})
	if len(v.active) == 0 || len(v.active) > cfg.BeamTopK {
		t.Fatalf("step 1: active %d, want 1..%d", len(v.active), cfg.BeamTopK)
	}
	before := make(map[int]float64, len(v.active))
	vd := v.denseView()
	for _, i := range v.active {
		before[i] = vd[i]
	}
	// A contradictory annulus falling strictly between the
	// representable step distances 0 and one cell kills every
	// candidate (see TestSparseDecoderHoldFallback).
	v.step(stepEvidence{dMin: 0.0021, dMax: 0.00124, dphi: math.NaN()})
	if len(v.active) == 0 || len(v.active) > cfg.BeamTopK {
		t.Fatalf("hold step: active %d, want 1..%d", len(v.active), cfg.BeamTopK)
	}
	vd = v.denseView()
	for _, i := range v.active {
		s, ok := before[i]
		if !ok {
			t.Fatalf("hold step: cell %d appeared from outside the previous beam", i)
		}
		if s != vd[i] {
			t.Fatalf("hold step: cell %d score %v, want carried %v", i, vd[i], s)
		}
	}
	// Held backpointers are self-loops: the decoded path repeats.
	p := v.path()
	if p[2] != p[1] {
		t.Fatalf("hold step: path %d -> %d, want a repeat", p[1], p[2])
	}
	// And the decoder recovers on the next consistent step.
	v.step(stepEvidence{dMin: 0, dMax: 0.008, dphi: g.expDphi[g.index(geom.Vec2{X: 0.31, Y: 0.1})]})
	if len(v.active) == 0 || len(v.active) > cfg.BeamTopK {
		t.Fatalf("recovery step: active %d, want 1..%d", len(v.active), cfg.BeamTopK)
	}
}

// TestHyperbolaAtMatchesDense checks the sparse per-cell scorer
// against the dense vector it replaced, cell for cell.
func TestHyperbolaAtMatchesDense(t *testing.T) {
	cfg := gridCfg()
	g := newGrid(cfg)
	for _, dphi := range []float64{0, 0.7, math.Pi, 5.1} {
		ev := stepEvidence{dphi: dphi}
		dense := g.hyperbolaLog(cfg, ev, nil)
		for i := range dense {
			if got := g.hyperbolaAt(i, dphi); got != dense[i] {
				t.Fatalf("dphi %v cell %d: hyperbolaAt %v, dense %v", dphi, i, got, dense[i])
			}
		}
	}
	if g.hyperbolaLog(cfg, stepEvidence{dphi: math.NaN()}, nil) != nil {
		t.Fatal("dense hyperbola for spurious window should be nil")
	}
}
