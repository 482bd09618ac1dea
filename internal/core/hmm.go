package core

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"polardraw/internal/geom"
)

// grid is the HMM state space: the writing block discretized into
// square blocks of CellSize (section 3.5).
type grid struct {
	min      geom.Vec2
	cell     float64
	nx, ny   int
	antennas [2]geom.Vec3
	lambda   float64
	// expDphi caches the theoretical inter-antenna phase difference
	// (theta2 - theta1, wrapped) at every cell centre.
	expDphi []float64
	// radialInv caches, per cell, the inverse of the 2x2 path-length
	// gradient matrix used by the radial displacement solve. A zero
	// matrix marks an ill-conditioned cell.
	radialInv [][4]float64
	// stencils shares built annulus/direction stencils across every
	// decoder on this grid (see stencilcache.go). Quantized step
	// evidence repeats heavily within and across sessions, so the
	// per-step trig/score work amortizes across the whole serving tier
	// instead of being rebuilt per step per session.
	stencils stencilCache
	// scratchPool holds idle *stepScratch, the grid-sized working set
	// each decode step borrows (see stepScratch).
	scratchPool sync.Pool
	// priorPool holds idle stroke-start prior vectors, *[]float64 (see
	// initialDistribution), and beamPool the prior's support, *wideBeam:
	// the active and score buffers seedViterbi fills and the first step
	// under a count bound gives back.
	priorPool, beamPool sync.Pool
}

// wideBeam is a pooled pair of beam buffers wider than any count bound.
type wideBeam struct {
	active []int
	score  []float64
}

func newGrid(cfg Config) *grid {
	g := &grid{
		min:    cfg.BoardMin,
		cell:   cfg.CellSize,
		lambda: cfg.Lambda,
	}
	g.nx = int((cfg.BoardMax.X-cfg.BoardMin.X)/cfg.CellSize) + 1
	g.ny = int((cfg.BoardMax.Y-cfg.BoardMin.Y)/cfg.CellSize) + 1
	g.antennas[0] = cfg.Antennas[0].Pos
	g.antennas[1] = cfg.Antennas[1].Pos
	cablePhaseDiff := cfg.Antennas[1].CablePhase - cfg.Antennas[0].CablePhase
	g.expDphi = make([]float64, g.nx*g.ny)
	g.radialInv = make([][4]float64, g.nx*g.ny)
	for i := range g.expDphi {
		p := g.center(i)
		q := geom.Vec3From(p, 0)
		l1 := q.Dist(g.antennas[0])
		l2 := q.Dist(g.antennas[1])
		g.expDphi[i] = geom.WrapAngle(4*math.Pi*(l2-l1)/g.lambda + cablePhaseDiff)

		// Board-plane gradients of the two path lengths: the rows of
		// the system G*d = (dl1, dl2) that the radial displacement
		// solve inverts. Stored as the inverse matrix (or a zero
		// matrix when ill-conditioned).
		g1 := q.Sub(g.antennas[0]).Unit()
		g2 := q.Sub(g.antennas[1]).Unit()
		det := g1.X*g2.Y - g1.Y*g2.X
		if math.Abs(det) > 0.05 {
			g.radialInv[i] = [4]float64{g2.Y / det, -g1.Y / det, -g2.X / det, g1.X / det}
		}
	}
	return g
}

// radialDisplacement solves the per-cell 2x2 system for the board
// displacement implied by the two antennas' path-length changes, and
// reports whether the solve was well conditioned.
func (g *grid) radialDisplacement(cell int, dl1, dl2 float64) (geom.Vec2, bool) {
	inv := g.radialInv[cell]
	if inv == [4]float64{} {
		return geom.Vec2{}, false
	}
	return geom.Vec2{
		X: inv[0]*dl1 + inv[1]*dl2,
		Y: inv[2]*dl1 + inv[3]*dl2,
	}, true
}

func (g *grid) size() int { return g.nx * g.ny }

func (g *grid) center(i int) geom.Vec2 {
	x := i % g.nx
	y := i / g.nx
	return geom.Vec2{
		X: g.min.X + (float64(x)+0.5)*g.cell,
		Y: g.min.Y + (float64(y)+0.5)*g.cell,
	}
}

func (g *grid) index(p geom.Vec2) int {
	x := int((p.X - g.min.X) / g.cell)
	y := int((p.Y - g.min.Y) / g.cell)
	if x < 0 {
		x = 0
	}
	if x >= g.nx {
		x = g.nx - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= g.ny {
		y = g.ny - 1
	}
	return y*g.nx + x
}

// stepEvidence is the fused measurement evidence for one window
// transition, produced by the tracker from sections 3.3/3.4 and
// consumed by the decoder via the Eq. 8 transition and Eq. 11
// emission.
type stepEvidence struct {
	// dMin/dMax bound the displacement (the feasible annulus of
	// Fig. 12(a)), metres.
	dMin, dMax float64
	// dir is the estimated movement direction (unit), or zero when
	// unknown.
	dir geom.Vec2
	// dphi is the measured inter-antenna phase difference for the
	// destination window, or NaN when spurious.
	dphi float64
	// dl1/dl2 are the per-antenna path-length changes (Eq. 5), and
	// haveDL marks them usable (neither window spurious). They drive
	// the radial displacement solve.
	dl1, dl2 float64
	haveDL   bool
}

// emissionLog scores a candidate destination cell given the previous
// cell and the step evidence: the log of Eq. 11's two-factor product
// (hyperbola consistency x movement-direction consistency), with the
// annulus enforced as a hard constraint (Eq. 8 gives out-of-annulus
// transitions probability zero).
func (g *grid) emissionLog(cfg Config, prev geom.Vec2, cand int, ev stepEvidence) float64 {
	p := g.center(cand)
	d := p.Sub(prev)
	dist := d.Norm()
	// Eq. 8: hard annulus. Discretization slack is asymmetric: generous
	// on the outside (so the chain is never stranded) but tight on the
	// inside, because a loose lower bound lets the decoder sit still
	// while the phase says the pen moved, which systematically shrinks
	// recovered letters.
	if dist > ev.dMax+g.cell*0.75 || dist < ev.dMin-g.cell*0.4 {
		return math.Inf(-1)
	}

	score := 0.0
	// Hyperbola factor: closeness of the cell's theoretical
	// inter-antenna phase difference to the measured one (Fig. 12(c)).
	if !cfg.DisableHyperbola && !math.IsNaN(ev.dphi) {
		miss := geom.AngleDist(g.expDphi[cand], ev.dphi) / math.Pi // 0..1
		f := 1 - miss
		score += math.Log(f*f + 1e-3)
	}
	// Direction factor: perpendicular deviation from the motion line
	// through prev along ev.dir (Fig. 12(b)), normalized by the
	// maximum step.
	if ev.dir != (geom.Vec2{}) && dist > 1e-6 {
		along := d.Dot(ev.dir)
		perp := math.Abs(d.Cross(ev.dir))
		f := 1 - math.Min(perp/math.Max(ev.dMax, g.cell), 1)
		score += math.Log(f + 1e-3)
		if along < 0 {
			// The trends gave a signed direction; moving against it is
			// possible (the call may be wrong) but penalized.
			score += math.Log(againstDirPenalty)
		}
	}
	return score
}

// stencilEntry is one admissible displacement offset with its
// direction-term log score. The emission of Eq. 11 factors into a
// per-offset part (annulus + direction) and a per-cell part
// (hyperbola); precomputing both once per step removes all math calls
// from the Viterbi inner loop. off caches dy*nx+dx so interior cells
// skip the per-transition bounds arithmetic entirely.
type stencilEntry struct {
	score  float64
	off    int32
	dx, dy int16
}

// buildStencil enumerates the offsets admitted by the Eq. 8 annulus
// and scores each with the direction factor of Eq. 11, appending into
// buf (pass buf[:0] to reuse an earlier step's allocation). The result
// matches emissionLog's per-offset terms exactly.
func (g *grid) buildStencil(ev stepEvidence, buf []stencilEntry) []stencilEntry {
	r := g.stencilRadius(ev)
	hasDir := ev.dir != (geom.Vec2{})
	out := buf
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			d := geom.Vec2{X: float64(dx) * g.cell, Y: float64(dy) * g.cell}
			dist := d.Norm()
			if dist > ev.dMax+g.cell*0.75 || dist < ev.dMin-g.cell*0.4 {
				continue
			}
			score := 0.0
			if hasDir && dist > 1e-6 {
				along := d.Dot(ev.dir)
				perp := math.Abs(d.Cross(ev.dir))
				f := 1 - math.Min(perp/math.Max(ev.dMax, g.cell), 1)
				score += math.Log(f + 1e-3)
				if along < 0 {
					score += math.Log(againstDirPenalty)
				}
			}
			out = append(out, stencilEntry{
				score: score,
				off:   int32(dy*g.nx + dx),
				dx:    int16(dx), dy: int16(dy),
			})
		}
	}
	return out
}

// stencilRadius is the largest |dx|/|dy| the stencil for ev can hold:
// cells at least this far from every board edge can take the
// bounds-check-free interior path of the transition scan.
//
// Offsets reaching past the board's longer side land off the board
// from every cell, so clamping there drops nothing; it keeps a long
// gap between windows (or a corrupt restored window time) from
// building a stencil larger than the board.
func (g *grid) stencilRadius(ev stepEvidence) int {
	return min(int((ev.dMax+g.cell*0.75)/g.cell)+1, max(g.nx, g.ny))
}

// hyperbolaAt returns the hyperbola log factor of Eq. 11 for one cell
// and one measured inter-antenna phase difference: the sparse building
// block of the decoder's on-demand emission scoring. It matches
// emissionLog's per-cell term exactly.
func (g *grid) hyperbolaAt(i int, dphi float64) float64 {
	miss := geom.AngleDist(g.expDphi[i], dphi) / math.Pi
	f := 1 - miss
	return math.Log(f*f + 1e-3)
}

// hyperbolaLog returns the dense per-cell hyperbola factor for one
// step, or nil when the term is disabled or the measurement is
// spurious. The decoder no longer evaluates the whole grid (cells are
// scored on demand via hyperbolaAt); this remains as the dense
// reference the sparse-vs-dense equivalence suite checks against.
func (g *grid) hyperbolaLog(cfg Config, ev stepEvidence, buf []float64) []float64 {
	if cfg.DisableHyperbola || math.IsNaN(ev.dphi) {
		return nil
	}
	if cap(buf) < g.size() {
		buf = make([]float64, g.size())
	}
	buf = buf[:g.size()]
	for i := range buf {
		buf[i] = g.hyperbolaAt(i, ev.dphi)
	}
	return buf
}

// neighborhood enumerates candidate destination cells within dMax (+
// slack) of a cell, appending into buf (pass buf[:0] to reuse an
// earlier step's allocation).
func (g *grid) neighborhood(from int, dMax float64, buf []int) []int {
	r := int(dMax/g.cell) + 1
	fx := from % g.nx
	fy := from / g.nx
	out := buf
	for dy := -r; dy <= r; dy++ {
		y := fy + dy
		if y < 0 || y >= g.ny {
			continue
		}
		for dx := -r; dx <= r; dx++ {
			x := fx + dx
			if x < 0 || x >= g.nx {
				continue
			}
			out = append(out, y*g.nx+x)
		}
	}
	return out
}

// beamWidth is the log-probability window kept around the per-step
// maximum during Viterbi decoding. States falling further behind are
// pruned; the exact decoder would keep them, but they essentially
// never win and dropping them turns the per-letter decode from
// seconds into tens of milliseconds.
const beamWidth = 12.0

// beamRecord is the backpointer store for one decoded time: cells
// lists the states that survived that step's prune, ascending (the
// active list at that time), and pred[j] is the index of cells[j]'s
// argmax predecessor in the previous time's record. Storing indices
// makes every backtrack step an O(1) lookup, and storage scales with
// the beam instead of the grid. Time 0 has no predecessor, so its
// record holds cells only.
type beamRecord struct {
	cells, pred []int32
}

// stepScratch is the grid-sized working set of one decode step (and of
// one merge walk). It carries nothing from one use to the next — cur is
// all -Inf and mask all zero whenever it is idle, arg is read only
// where cur is finite, and the lists restart empty — so every decoder
// on a grid shares the grid's pool of them, and grid-sized memory
// scales with the decodes running at once instead of with open pens.
type stepScratch struct {
	// cur holds the scores of the step being built; arg[to] is the
	// active-list index of the best predecessor found so far for cell
	// to.
	cur []float64
	arg []int32
	// mask is the prune bitmap for the ascending active rebuild;
	// touched lists the cells of cur written this step.
	mask    []uint64
	touched []int32
	// sel is the top-K quickselect scratch, ties the boundary-tie
	// scratch.
	sel  []float64
	ties []int32
	// hyp caches relaxBounded's first-phase hyperbola terms, aligned
	// with touched.
	hyp []float64
	// stencil is the buildStencil reuse buffer (cache-off path).
	stencil []stencilEntry
	// Merge-walk marks (commitMerged), indexed by record position:
	// setMark[b] == setGen marks b as already reached by this walk
	// step.
	setMark []uint32
	setGen  uint32
}

// scratch takes a step scratch from the grid's pool (users put it back
// idle). A step that panics never puts its scratch back, so the pool
// only ever holds idle ones.
func (g *grid) scratch() *stepScratch {
	if sc, ok := g.scratchPool.Get().(*stepScratch); ok {
		return sc
	}
	n := g.size()
	sc := &stepScratch{
		cur:  make([]float64, n),
		arg:  make([]int32, n),
		mask: make([]uint64, (n+63)/64),
	}
	for i := range sc.cur {
		sc.cur[i] = math.Inf(-1)
	}
	return sc
}

// viterbiState is the forward-pass state of the beam-pruned Viterbi
// decoder, advanced one evidence step at a time. Both the batch
// decoder and core.StreamTracker drive the same state machine, so a
// streamed decode is bit-identical to a batch one.
//
// The pass is sparse: each step scores only the cells reachable from
// the active beam through the annulus stencil — the Eq. 11 hyperbola
// term, which depends only on the destination cell, is hoisted out of
// the transition argmax and computed once per written cell instead of
// over the whole grid. The state kept between steps is sized by the
// beam: the active cells with their scores, the beam records and the
// commit bookkeeping. The grid-sized working set of a step lives in a
// stepScratch borrowed from the grid for that step only.
//
// With fixed-lag smoothing (advanceCommit) the decoder also commits
// the trajectory prefix all surviving paths agree on, recycling the
// beam records behind the commit point, which bounds resident decoder
// memory by the lag times the beam instead of the stream length times
// the grid.
type viterbiState struct {
	g   *grid
	cfg Config
	// active lists the states currently carrying probability mass,
	// ascending (the order fixes tie-breaks deterministically), and
	// score[j] is active[j]'s running log-probability.
	active []int
	score  []float64
	// maxPrev is the maximum of score (the beam anchor).
	maxPrev float64
	// steps counts the evidence transitions taken, so decoded states
	// exist for times 0..steps.
	steps int

	// kCur is the adaptive controller's current count bound
	// (cfg.BeamTopK when the controller is off).
	kCur int

	// Decode telemetry (see DecodeStats).
	activeSum                  uint64
	activePeak                 int
	topkPruned                 uint64
	mergeCommits               int
	stencilHits, stencilMisses uint64

	// back holds one beam record per undecided time: back[j] belongs to
	// time commitT+1+j, so the last record is the current beam (its
	// cells equal active). The oldest record's predecessors point into
	// a time already committed and are never read. Records of committed
	// times are recycled into pool with their capacity.
	back []beamRecord
	pool []beamRecord
	slab []int32 // unused tail of the latest record chunk (newRecord)

	// Fixed-lag smoothing state: committed[t] is the decided path cell
	// for every time t <= commitT (-1 until the first commit); forced
	// counts force-commits, after which the decode may deviate from
	// the unbounded-lag Viterbi path.
	commitT   int
	committed []int32
	forced    int

	// Merge-detection scratch (advanceCommit), sized by the beam.
	setA, setB []int32
	trailBuf   []int32
}

// seedViterbi seeds the decoder with an initial log-probability vector
// over the grid (read, not retained) and applies the first beam prune.
// The beam's buffers come from the grid's beamPool when one is idle.
func (g *grid) seedViterbi(cfg Config, initLog []float64) *viterbiState {
	initLog = initLog[:g.size()]
	v := &viterbiState{g: g, cfg: cfg, commitT: -1}
	v.maxPrev = math.Inf(-1)
	for _, p := range initLog {
		if p > v.maxPrev {
			v.maxPrev = p
		}
	}
	live := 0
	for _, p := range initLog {
		if p > v.maxPrev-beamWidth {
			live++
		}
	}
	if wb, ok := g.beamPool.Get().(*wideBeam); ok && cap(wb.active) >= live && cap(wb.score) >= live {
		v.active, v.score = wb.active[:0], wb.score[:0]
	} else {
		v.active = make([]int, 0, live)
		v.score = make([]float64, 0, live)
	}
	cells := make([]int32, 0, live)
	for i, p := range initLog {
		if p > v.maxPrev-beamWidth {
			v.active = append(v.active, i)
			v.score = append(v.score, p)
			cells = append(cells, int32(i))
		}
	}
	v.back = append(v.back, beamRecord{cells: cells})
	return v
}

// recordChunk is how many count-bounded beam records share one backing
// allocation (the slab) while the pool is still empty: the first
// CommitLag steps of a stroke, or every step of an unbounded-lag
// decode.
const recordChunk = 16

// newRecord returns an empty beam record with room for n states,
// recycling a committed-past record when one fits (time 0's record,
// which has no pred half, never does). Under a count bound a new record
// is carved from the slab with the bound's capacity, so once recycled
// it fits every later step; a wider beam (no bound) gets an allocation
// of its own. Either way a record costs at most one allocation, for
// both of its slices.
func (v *viterbiState) newRecord(n int) beamRecord {
	if k := len(v.pool); k > 0 {
		rec := v.pool[k-1]
		v.pool = v.pool[:k-1]
		if cap(rec.cells) >= n && cap(rec.pred) >= n {
			return beamRecord{cells: rec.cells[:0], pred: rec.pred[:0]}
		}
	}
	c := v.recordBound()
	if n > c {
		return makeRecord(n)
	}
	if cap(v.slab)-len(v.slab) < 2*c {
		v.slab = make([]int32, 0, 2*c*recordChunk)
	}
	k := len(v.slab)
	v.slab = v.slab[:k+2*c]
	return beamRecord{cells: v.slab[k : k : k+c], pred: v.slab[k+c : k+c : k+2*c]}
}

// makeRecord allocates an empty beam record with room for m states,
// both slices in one allocation.
func makeRecord(m int) beamRecord {
	buf := make([]int32, 2*m)
	return beamRecord{cells: buf[:0:m], pred: buf[m : m : 2*m]}
}

// recordBound is the count bound a beam record is sized for: the
// larger of the configured and the adaptive K, capped at the grid (0
// for a window-only beam).
func (v *viterbiState) recordBound() int {
	return min(max(v.kCur, v.cfg.BeamTopK), v.g.size())
}

// hyperbolaMax bounds every value hyperbolaAt returns from above: f <=
// 1 there, so the term is at most log(1+1e-3), and log(1+x) < x leaves
// room for rounding.
const hyperbolaMax = 1e-3

// relaxer applies one step's transition model (the stencil and the
// optional radial displacement prior) out of one source at a time.
type relaxer struct {
	g         *grid
	cur       []float64
	arg       []int32
	stencil   []stencilEntry
	r         int
	ev        stepEvidence
	useRadial bool
}

// relax applies every transition out of active cell from (position j,
// score base) to cur and arg, appending the cells it writes first to
// touched. A tie goes to the lower active index, so sources may be
// relaxed in any order and still give the argmax of an ascending scan.
func (rx *relaxer) relax(j, from int, base float64, touched []int32) []int32 {
	g, cur, arg, ev := rx.g, rx.cur, rx.arg, rx.ev
	negInf := math.Inf(-1)
	jj := int32(j)
	fx, fy := from%g.nx, from/g.nx
	var dExp geom.Vec2
	radialOK := false
	if rx.useRadial {
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
	if r := rx.r; !radialOK && fx >= r && fx < g.nx-r && fy >= r && fy < g.ny-r {
		// Interior fast path: every stencil offset stays on the
		// board, so the bounds arithmetic drops out of the scan.
		for _, st := range rx.stencil {
			to := from + int(st.off)
			score := base + st.score
			if c := cur[to]; score > c || score == c && jj < arg[to] {
				if c == negInf {
					touched = append(touched, int32(to))
				}
				cur[to] = score
				arg[to] = jj
			}
		}
		return touched
	}
	// Radial displacement prior spread: per-antenna path-length
	// noise amplified by the solve's conditioning, in metres.
	const radialSigma = 0.005
	invVar := 1 / (2 * radialSigma * radialSigma)
	for _, st := range rx.stencil {
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
		if c := cur[to]; score > c || score == c && jj < arg[to] {
			if c == negInf {
				touched = append(touched, int32(to))
			}
			cur[to] = score
			arg[to] = jj
		}
	}
	return touched
}

// step advances the forward pass by one evidence transition.
func (v *viterbiState) step(ev stepEvidence) {
	g, cfg := v.g, v.cfg
	sc := g.scratch()
	cur, arg := sc.cur, sc.arg
	negInf := math.Inf(-1)
	rx := relaxer{g: g, cur: cur, arg: arg, r: g.stencilRadius(ev), ev: ev,
		useRadial: ev.haveDL && cfg.UseRadialSolve}
	if cfg.DisableStencilCache {
		sc.stencil = g.buildStencil(ev, sc.stencil[:0])
		rx.stencil = sc.stencil
	} else if st, hit := g.stencilFor(ev); hit {
		v.stencilHits++
		rx.stencil = st
	} else {
		v.stencilMisses++
		rx.stencil = st
	}
	hypOn := !cfg.DisableHyperbola && !math.IsNaN(ev.dphi)
	var touched []int32
	if k := v.countBoundMax(); k > 0 && len(v.active) > k {
		touched = v.relaxBounded(sc, &rx, k, hypOn)
	} else {
		touched = sc.touched[:0]
		for j, from := range v.active {
			touched = rx.relax(j, from, v.score[j], touched)
		}
		// The Eq. 11 hyperbola term depends only on the destination
		// cell, so it cannot change which predecessor wins: apply it
		// after the argmax, once per written cell, instead of once per
		// transition (or, as the dense reference does, once per grid
		// cell).
		if hypOn {
			for _, i := range touched {
				cur[i] += g.hyperbolaAt(int(i), ev.dphi)
			}
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
	// which go back to the grid for the next stroke start. Each
	// survivor's score moves out of cur, leaving the scratch all -Inf
	// again, and the same pass fills this time's beam record.
	active, score := v.active[:0], v.score[:0]
	if c := v.recordBound(); cap(active) < live || c > 0 && cap(active) > c {
		if c > 0 && cap(active) > c {
			g.beamPool.Put(&wideBeam{active: active, score: score})
		}
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

// relaxBounded is the transition scan for a beam wider than k, the
// largest count bound this step can apply (the prior's support at a
// stroke start). It is an exact Viterbi step that skips the sources a
// bound proves cannot reach a surviving cell, in the manner of Lazy
// Viterbi (Feldman, Abou-Faycal and Frigo, 2002). It returns the
// touched cells that can survive the prune, with final scores (the
// hyperbola term included) and exact predecessors; every other cell it
// wrote is back at -Inf.
//
// Phase 1 relaxes the k best sources and scores the cells they reach.
// Those scores are lower bounds on the final ones, so no cell below
// thr = max(k-th best, best - beamWidth) can survive: it is outside
// the window or below the k-th survivor. Under BeamAdaptive thr is also
// capped at best - adaptMargin, so the controller's count of close
// contenders stays exact. Phase 2 relaxes every other source whose best
// transition plus the largest hyperbola term reaches thr. A cell
// scoring at least thr is reached by its best predecessors, ties
// included, only through such sources, so its score and lowest-index
// predecessor are those of the full scan.
func (v *viterbiState) relaxBounded(sc *stepScratch, rx *relaxer, k int, hypOn bool) []int32 {
	g, cur, dphi := v.g, sc.cur, rx.ev.dphi
	negInf := math.Inf(-1)
	sel := append(sc.sel[:0], v.score...)
	kth := kthLargest(sel, k)
	touched := sc.touched[:0]
	for j, s := range v.score {
		if s >= kth {
			touched = rx.relax(j, v.active[j], s, touched)
		}
	}
	n1 := len(touched)
	hyp, sel := sc.hyp[:0], sel[:0]
	best := negInf
	for _, i := range touched {
		h := 0.0
		if hypOn {
			h = g.hyperbolaAt(int(i), dphi)
		}
		hyp = append(hyp, h)
		s := cur[i] + h
		sel = append(sel, s)
		if s > best {
			best = s
		}
	}
	thr := negInf
	if n1 > 0 {
		thr = best - beamWidth
		if len(sel) >= k {
			thr = max(thr, kthLargest(sel, k))
		}
		if v.cfg.BeamAdaptive {
			thr = min(thr, best-adaptMargin)
		}
	}
	stMax, hMax := negInf, 0.0
	for _, st := range rx.stencil {
		stMax = max(stMax, st.score)
	}
	if hypOn {
		hMax = hyperbolaMax
	}
	for j, s := range v.score {
		if s < kth && s+stMax+hMax >= thr {
			touched = rx.relax(j, v.active[j], s, touched)
		}
	}
	// Final scores. A cell first reached in phase 2 whose best case
	// stays below thr is dropped without its hyperbola term.
	live := touched[:0]
	for x, i := range touched {
		s := cur[i]
		switch {
		case !hypOn:
		case x < n1:
			s += hyp[x]
		case s+hMax < thr:
			s = negInf
		default:
			s += g.hyperbolaAt(int(i), dphi)
		}
		if s < thr {
			cur[i] = negInf
			continue
		}
		cur[i] = s
		live = append(live, i)
	}
	sc.sel, sc.hyp = sel, hyp
	return live
}

// countBoundMax is the largest count bound this step's prune can apply:
// BeamTopK, or under BeamAdaptive the largest K adaptK can return from
// the controller's current state (0 for a window-only beam).
func (v *viterbiState) countBoundMax() int {
	base := v.cfg.BeamTopK
	if base <= 0 || !v.cfg.BeamAdaptive {
		return max(base, 0)
	}
	k := v.kCur
	if k == 0 {
		k = base
	}
	// Growing from k, or shrinking toward a floor above k, bounds every
	// move, staying put included.
	return max(adaptStep(base, k, math.MaxInt), adaptStep(base, k, 0))
}

// adaptMargin is the adaptive controller's confidence window, nats:
// states scoring within this margin of the per-step maximum count as
// contenders for the decode.
const adaptMargin = 2.0

// topKSelect decides whether the count bound applies this step. It
// collects the window-prune survivors among sc's touched cells, runs
// the adaptive controller, and — when the survivors exceed the bound —
// returns the K-th-largest survivor score (the selection threshold),
// the effective K, and the survivor count.
func (v *viterbiState) topKSelect(sc *stepScratch, touched []int32, maxCur float64) (thr float64, kEff, surv int, bounded bool) {
	k := v.cfg.BeamTopK
	if k <= 0 {
		return 0, 0, 0, false
	}
	sel := sc.sel[:0]
	nClose := 0
	for _, i := range touched {
		if s := sc.cur[i]; s > maxCur-beamWidth {
			sel = append(sel, s)
			if s > maxCur-adaptMargin {
				nClose++
			}
		}
	}
	sc.sel = sel
	if v.cfg.BeamAdaptive {
		k = v.adaptK(nClose)
	} else {
		v.kCur = k
	}
	if len(sel) <= k {
		return 0, 0, 0, false
	}
	return kthLargest(sel, k), k, len(sel), true
}

// adaptK is the adaptive top-K controller: when the max-probability
// margin is small — many states score within adaptMargin of the
// per-step maximum — it widens the bound (the posterior is flat and a
// hard cut risks dropping the true path); when the beam is confident
// (few contenders) it narrows toward the floor and the decode gets
// cheaper. Multiplicative steps within [BeamTopK/4, BeamTopK*4],
// floored at 16 states. The controller state lives in the decoder, so
// batch and streamed decodes evolve identically.
func (v *viterbiState) adaptK(nClose int) int {
	if v.kCur == 0 {
		v.kCur = v.cfg.BeamTopK
	}
	v.kCur = adaptStep(v.cfg.BeamTopK, v.kCur, nClose)
	return v.kCur
}

// adaptStep is one move of the adaptive controller: the bound that
// follows bound k when nClose states are contenders.
func adaptStep(base, k, nClose int) int {
	kMin, kMax := max(base/4, 16), base*4
	switch {
	case nClose >= k:
		return min(2*k, kMax)
	case nClose < k/4:
		return max(k/2, kMin)
	}
	return k
}

// kthLargest returns the k-th largest value of s (1 <= k <= len(s)),
// reordering s in place: Hoare-partition quickselect with a
// median-of-three pivot, expected O(n). Only the returned value is
// consumed, and the k-th largest value is unique regardless of
// partition order, so the selection is deterministic.
func kthLargest(s []float64, k int) float64 {
	lo, hi := 0, len(s)-1
	target := k - 1 // index in descending sorted order
	for lo < hi {
		mid := lo + (hi-lo)/2
		if s[mid] > s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] > s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] > s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		pivot := s[mid]
		i, j := lo, hi
		for i <= j {
			for s[i] > pivot {
				i++
			}
			for s[j] < pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case target <= j:
			hi = j
		case target >= i:
			lo = i
		default:
			return s[target]
		}
	}
	return s[target]
}

// DecodeStats is a snapshot of one decoder's telemetry: how sparse the
// beam actually is, how the fixed-lag smoother is committing, and how
// the shared stencil cache served this decoder.
type DecodeStats struct {
	// Steps counts the evidence transitions decoded so far.
	Steps int
	// ActiveLast/ActiveMean/ActivePeak describe the active-set size
	// (states carrying probability mass) after each step.
	ActiveLast int
	ActiveMean float64
	ActivePeak int
	// Occupancy is ActiveMean over the grid size: the fraction of the
	// board the beam actually touches per step.
	Occupancy float64
	// BeamK is the effective count bound — the adaptive controller's
	// current K, or BeamTopK when the controller is off (0 when the
	// beam is window-only).
	BeamK int
	// TopKPruned counts the scored states that survived the log-window
	// prune but were cut by the count bound. A step from a beam wider
	// than the bound (a stroke start) never scores the states its bound
	// proves cannot survive, so they are not counted: the figure is at
	// most what a scan of every transition would count.
	TopKPruned uint64
	// MergeCommits and ForcedCommits count fixed-lag commit events by
	// kind: merged commits are lossless (every surviving path agreed
	// on the prefix), forced ones froze the prefix at the lag bound.
	MergeCommits, ForcedCommits int
	// StencilHits/StencilMisses count this decoder's lookups in the
	// shared per-grid stencil cache (zero when the cache is disabled;
	// grid-wide totals: Tracker.StencilCacheStats).
	StencilHits, StencilMisses uint64
}

// decodeStats snapshots the decoder's telemetry counters.
func (v *viterbiState) decodeStats() DecodeStats {
	st := DecodeStats{
		Steps:         v.steps,
		ActiveLast:    len(v.active),
		ActivePeak:    v.activePeak,
		BeamK:         v.kCur,
		TopKPruned:    v.topkPruned,
		MergeCommits:  v.mergeCommits,
		ForcedCommits: v.forced,
		StencilHits:   v.stencilHits,
		StencilMisses: v.stencilMisses,
	}
	if st.BeamK == 0 {
		st.BeamK = v.cfg.BeamTopK
	}
	if v.steps > 0 {
		st.ActiveMean = float64(v.activeSum) / float64(v.steps)
		st.Occupancy = st.ActiveMean / float64(v.g.size())
	}
	return st
}

// best returns the current maximum-probability cell — the streaming
// (filtering) position estimate after the steps seen so far.
func (v *viterbiState) best() int {
	return v.active[v.bestIdx()]
}

// bestIdx returns best's position in the active list (equivalently, in
// the current beam record).
func (v *viterbiState) bestIdx() int {
	best := 0
	for j, s := range v.score[1:] {
		if s > v.score[best] {
			best = j + 1
		}
	}
	return best
}

// record returns the beam record of time t (commitT < t <= steps).
func (v *viterbiState) record(t int) *beamRecord {
	return &v.back[t-v.commitT-1]
}

// path returns the most likely cell sequence over every step taken so
// far (steps+1 states): the committed prefix concatenated with a
// backtrack from the current best state. It does not mutate the
// state, so it may be called mid-stream.
func (v *viterbiState) path() []int {
	path := make([]int, v.steps+1)
	for t, c := range v.committed {
		path[t] = int(c)
	}
	j := int32(v.bestIdx())
	for t := v.steps; t > v.commitT; t-- {
		rec := v.record(t)
		path[t] = int(rec.cells[j])
		if t > v.commitT+1 {
			j = rec.pred[j]
		}
	}
	return path
}

// advanceCommit extends the committed path prefix and returns the
// newly decided cells (a view into internal state, valid until the
// next call) together with the time index of the first one. Natural
// commits happen whenever every surviving path shares one ancestor:
// that prefix can never change again, so committing it is lossless.
// When maxLag > 0 and more than maxLag steps remain undecided, the
// oldest are force-committed along the current best path, trading the
// guarantee of matching the unbounded decode (forced counts these)
// for bounded memory and latency. Recycled beam records keep resident
// decoder memory at O(maxLag) records of at most the beam size each.
func (v *viterbiState) advanceCommit(maxLag int) (start int, cells []int32) {
	start = v.commitT + 1
	if v.steps > v.commitT+1 {
		v.commitMerged()
	}
	if maxLag > 0 {
		if f := v.steps - maxLag; f > v.commitT {
			v.commitForced(f)
		}
	}
	if v.commitT >= start {
		return start, v.committed[start : v.commitT+1]
	}
	return start, nil
}

// commitMerged finds the latest time at which all surviving paths pass
// through a single cell and commits the path up to it.
func (v *viterbiState) commitMerged() {
	// set holds the candidate ancestors as positions in the record of
	// time k, starting as the whole active beam at time steps; walk the
	// predecessors until it collapses. The walk never commits the
	// current time (a singleton beam collapses at steps-1 after one
	// mapping), which keeps the newest record open as the commit
	// bookkeeping assumes.
	set := v.setA[:0]
	for j := range v.active {
		set = append(set, int32(j))
	}
	next := v.setB[:0]
	sc := v.g.scratch()
	collapsed := -1
	for k := v.steps; collapsed < 0 && k >= v.commitT+2; k-- {
		prevLen := len(set)
		pred := v.record(k).pred
		if n := len(v.record(k - 1).cells); len(sc.setMark) < n {
			sc.setMark = make([]uint32, n)
		}
		// The marks outlive this decoder in the shared scratch, so a
		// wrapped generation must not meet a stale mark equal to it.
		if sc.setGen++; sc.setGen == 0 {
			clear(sc.setMark)
			sc.setGen = 1
		}
		next = next[:0]
		for _, j := range set {
			if b := pred[j]; sc.setMark[b] != sc.setGen {
				sc.setMark[b] = sc.setGen
				next = append(next, b)
			}
		}
		set, next = next, set
		if len(set) == 1 {
			collapsed = k - 1
		} else if len(set)*3 > prevLen*2 {
			// Opportunistic detection only: the ancestor set stopped
			// contracting geometrically, so a full merge this step is
			// unlikely — bail rather than walk the whole lag window.
			// (In smooth probability fields backpointer maps are
			// near-bijections, so this keeps detection ~O(active) per
			// step; forced commits still bound memory and latency.)
			break
		}
	}
	v.g.scratchPool.Put(sc)
	if collapsed > v.commitT {
		v.mergeCommits++
		v.commitThrough(collapsed, set[0])
	}
	v.setA, v.setB = set[:0], next[:0]
}

// commitForced commits the path through time f along the current best
// path: the decoder's answer for those steps is frozen even though
// future evidence might have revised it.
func (v *viterbiState) commitForced(f int) {
	j := int32(v.bestIdx())
	for t := v.steps; t > f; t-- {
		j = v.record(t).pred[j]
	}
	v.forced++
	v.commitThrough(f, j)
}

// commitThrough appends the path cells for times commitT+1..tc to the
// committed prefix (j being the path state's position in the record of
// time tc) and recycles the records no backtrack can reach any more.
func (v *viterbiState) commitThrough(tc int, j int32) {
	n := tc - v.commitT
	if cap(v.trailBuf) < n {
		v.trailBuf = make([]int32, n)
	}
	trail := v.trailBuf[:n]
	for t := tc; t > v.commitT; t-- {
		rec := v.record(t)
		trail[t-v.commitT-1] = rec.cells[j]
		if t > v.commitT+1 {
			j = rec.pred[j]
		}
	}
	v.committed = append(v.committed, trail...)
	// Backtracks now stop at time tc+1 via committed, so the records
	// of times <= tc are dead. Under a count bound, records wider than
	// it (time 0's, which holds the prior's whole support) are left to
	// the collector, so the pool stays bounded by the beam, not the
	// grid.
	bound := v.recordBound()
	for _, rec := range v.back[:n] {
		if bound == 0 || cap(rec.cells) <= bound {
			v.pool = append(v.pool, rec)
		}
	}
	k := copy(v.back, v.back[n:])
	clear(v.back[k:])
	v.back = v.back[:k]
	v.commitT = tc
}

// viterbi decodes the most likely cell sequence given the per-step
// evidence and an initial log-probability vector. It returns cell indices, one per step (len(evidence)+1
// states). Decoding is beam-pruned (see beamWidth).
func (g *grid) viterbi(cfg Config, initLog []float64, evidence []stepEvidence) []int {
	v := g.seedViterbi(cfg, initLog)
	for _, ev := range evidence {
		v.step(ev)
	}
	return v.path()
}

// greedyState is the incremental form of the greedy decoder.
type greedyState struct {
	g    *grid
	cfg  Config
	cur  int
	path []int
	nbr  []int // neighborhood reuse buffer
}

func (g *grid) newGreedyState(cfg Config, initLog []float64) *greedyState {
	best := 0
	for i := 1; i < g.size(); i++ {
		if initLog[i] > initLog[best] {
			best = i
		}
	}
	return &greedyState{g: g, cfg: cfg, cur: best, path: []int{best}}
}

func (s *greedyState) step(ev stepEvidence) {
	fromPos := s.g.center(s.cur)
	bestTo, bestScore := s.cur, math.Inf(-1)
	s.nbr = s.g.neighborhood(s.cur, ev.dMax, s.nbr[:0])
	for _, to := range s.nbr {
		e := s.g.emissionLog(s.cfg, fromPos, to, ev)
		if e > bestScore {
			bestScore = e
			bestTo = to
		}
	}
	s.cur = bestTo
	s.path = append(s.path, bestTo)
}

// greedy decodes by per-step argmax (the DESIGN.md Viterbi ablation).
func (g *grid) greedy(cfg Config, initLog []float64, evidence []stepEvidence) []int {
	s := g.newGreedyState(cfg, initLog)
	for _, ev := range evidence {
		s.step(ev)
	}
	return append([]int(nil), s.path...)
}

// initialDistribution implements section 3.5's bootstrap: hyperbolic
// positioning from the first window's inter-antenna phase difference.
// Cells consistent with any candidate hyperbola get high prior; with a
// spurious first window the prior is uniform. The vector is borrowed
// from the grid's pool: the caller reads it (seedViterbi and the
// decoders keep no reference) and hands it back with putPrior.
func (g *grid) initialDistribution(cfg Config, dphi float64) []float64 {
	var out []float64
	if p, ok := g.priorPool.Get().(*[]float64); ok {
		out = *p
	} else {
		out = make([]float64, g.size())
	}
	if math.IsNaN(dphi) {
		clear(out)
		return out // uniform (all zeros in log space)
	}
	for i := range out {
		miss := geom.AngleDist(g.expDphi[i], dphi) / math.Pi
		f := 1 - miss
		out[i] = math.Log(f*f + 1e-6)
	}
	return out
}

// putPrior returns a vector from initialDistribution to the grid's
// pool; the caller must not read it afterwards.
func (g *grid) putPrior(p []float64) { g.priorPool.Put(&p) }
