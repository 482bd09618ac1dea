package core

import (
	"math"
	"testing"

	"polardraw/internal/geom"
	"polardraw/internal/reader"
)

// TestFixedLagCommitPrefix streams letters under several commit lags
// and checks the OnCommit contract: segments are contiguous from
// window 0, their concatenation equals the Finalize trajectory prefix
// exactly, and the resident backpointer window never exceeds the lag.
func TestFixedLagCommitPrefix(t *testing.T) {
	samples, ants := synthSamples(t, 'B', 21)
	for _, lag := range []int{4, 8, 24} {
		cfg := Config{Antennas: ants, CommitLag: lag, DisableSectorCorrection: true}
		tr := New(cfg)
		st := tr.Stream()
		var committed geom.Polyline
		maxResident := 0
		st.OnCommit = func(start int, seg geom.Polyline) {
			if start != len(committed) {
				t.Fatalf("lag %d: commit starts at %d, want %d", lag, start, len(committed))
			}
			if len(seg) == 0 {
				t.Fatalf("lag %d: empty commit segment", lag)
			}
			committed = append(committed, seg...)
		}
		st.OnWindow = func(Window, geom.Vec2) {
			if n := len(st.vit.back); n > maxResident {
				maxResident = n
			}
		}
		if err := st.Push(samples...); err != nil {
			t.Fatal(err)
		}
		res, err := st.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if res.Correction != 0 {
			t.Fatalf("lag %d: correction %v with sector correction disabled", lag, res.Correction)
		}
		if len(committed) == 0 {
			t.Fatalf("lag %d: no segments committed over %d windows", lag, len(res.Trajectory))
		}
		if len(committed) > len(res.Trajectory) {
			t.Fatalf("lag %d: committed %d points, trajectory only %d",
				lag, len(committed), len(res.Trajectory))
		}
		// The lag bounds how much must stay undecided: everything but
		// the last CommitLag windows is committed by the end.
		if want := len(res.Trajectory) - lag - 1; len(committed) < want {
			t.Fatalf("lag %d: committed %d points, want >= %d", lag, len(committed), want)
		}
		for i := range committed {
			if committed[i] != res.Trajectory[i] {
				t.Fatalf("lag %d: committed[%d] = %+v, trajectory %+v",
					lag, i, committed[i], res.Trajectory[i])
			}
		}
		if maxResident > lag {
			t.Fatalf("lag %d: %d resident backpointer vectors", lag, maxResident)
		}
	}
}

// TestFixedLagUnforcedMatchesBatch uses a lag longer than any stream,
// so only lossless path-merge commits may fire, and requires the
// streamed result to stay bit-identical to batch Track. (On realistic
// evidence the wide beam keeps several start hypotheses alive for the
// whole stream, so full merges are rare — the point here is that
// running merge detection every window perturbs nothing.)
func TestFixedLagUnforcedMatchesBatch(t *testing.T) {
	for _, tc := range []struct {
		letter rune
		seed   uint64
	}{{'A', 31}, {'W', 32}} {
		samples, ants := synthSamples(t, tc.letter, tc.seed)
		cfg := Config{Antennas: ants, CommitLag: 1 << 20}
		tr := New(cfg)
		batch, err := tr.Track(samples)
		if err != nil {
			t.Fatal(err)
		}
		st := tr.Stream()
		lastEnd := 0
		st.OnCommit = func(start int, seg geom.Polyline) {
			if start != lastEnd {
				t.Fatalf("commit starts at %d, want %d", start, lastEnd)
			}
			lastEnd = start + len(seg)
		}
		if err := st.Push(samples...); err != nil {
			t.Fatal(err)
		}
		if st.vit.forced != 0 {
			t.Fatalf("letter %c: %d forced commits under an unreachable lag",
				tc.letter, st.vit.forced)
		}
		stream, err := st.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, batch, stream)
	}
}

// TestNaturalMergeCommit engineers a deterministic lineage prune: two
// initial hypotheses, with hyperbola evidence that drops the decoy's
// whole lineage below the beam. Every surviving path then traces
// through the true start, the merge commit must fire without force,
// and the decode must equal an identical decoder run without commits.
func TestNaturalMergeCommit(t *testing.T) {
	cfg := gridCfg()
	g := newGrid(cfg)
	a := g.index(geom.Vec2{X: 0.15, Y: 0.1})
	// Decoy start: the cell whose expected inter-antenna phase
	// difference is farthest from A's, so the hyperbola term can
	// separate the lineages by ~log(1e-3).
	dphiA := g.expDphi[a]
	b, worst := -1, 0.0
	for i := range g.expDphi {
		if d := geom.AngleDist(g.expDphi[i], dphiA); d > worst {
			worst, b = d, i
		}
	}
	if worst < 2 {
		t.Fatalf("no sufficiently separated decoy cell (best %.2f rad)", worst)
	}
	init := make([]float64, g.size())
	for i := range init {
		init[i] = math.Inf(-1)
	}
	init[a], init[b] = 0, -7

	var evs []stepEvidence
	pos := g.center(a)
	for i := 0; i < 12; i++ {
		pos = pos.Add(geom.Vec2{X: 0.005})
		evs = append(evs, stepEvidence{dMin: 0.004, dMax: 0.006, dphi: g.expDphi[g.index(pos)]})
	}

	v := g.seedViterbi(cfg, init)   // with merge commits
	ref := g.seedViterbi(cfg, init) // without
	var committed []int32
	for _, ev := range evs {
		v.step(ev)
		ref.step(ev)
		start, cells := v.advanceCommit(0)
		if len(cells) > 0 && start != len(committed) {
			t.Fatalf("commit start %d, want %d", start, len(committed))
		}
		committed = append(committed, cells...)
	}
	if v.forced != 0 {
		t.Fatalf("forced = %d, want 0", v.forced)
	}
	if len(committed) == 0 {
		t.Fatal("lineage prune produced no natural merge commit")
	}
	vp, rp := v.path(), ref.path()
	if len(vp) != len(rp) {
		t.Fatalf("path length %d vs %d", len(vp), len(rp))
	}
	for i := range vp {
		if vp[i] != rp[i] {
			t.Fatalf("path[%d]: committed decoder %d, reference %d", i, vp[i], rp[i])
		}
	}
	for i, c := range committed {
		if int(c) != vp[i] {
			t.Fatalf("committed[%d] = %d, path %d", i, c, vp[i])
		}
	}
	if committed[0] != int32(a) {
		t.Fatalf("committed start %d, want %d", committed[0], a)
	}
}

// TestFixedLagBoundsLongStreamMemory runs a synthetic multi-minute
// stream and checks that decoder memory stays bounded by the lag
// while the committed prefix keeps pace with the stream, instead of
// growing O(windows) as the unbounded decoder does.
func TestFixedLagBoundsLongStreamMemory(t *testing.T) {
	cfg := Config{Antennas: gridCfg().Antennas, CommitLag: 16}
	tr := New(cfg)
	st := tr.Stream()
	maxResident, commitCalls := 0, 0
	lastEnd := 0
	st.OnCommit = func(start int, seg geom.Polyline) {
		commitCalls++
		lastEnd = start + len(seg)
	}
	st.OnWindow = func(Window, geom.Vec2) {
		if n := len(st.vit.back); n > maxResident {
			maxResident = n
		}
	}
	// ~120 s of two-antenna reads with a slow phase drift: ~2400
	// windows at the default 50 ms window.
	const n = 12000
	for i := 0; i < n; i++ {
		tm := float64(i) * 0.01
		st.Push(reader.Sample{
			T:       tm,
			Antenna: i % 2,
			RSS:     -50 + 2*math.Sin(tm/3),
			Phase:   geom.WrapAngle(1 + 0.05*tm + 0.02*float64(i%2)),
		})
	}
	preFlush := st.Windows()
	if preFlush < 1000 {
		t.Fatalf("synthetic stream closed only %d windows", preFlush)
	}
	if maxResident > cfg.CommitLag {
		t.Fatalf("resident backpointer vectors %d exceed lag %d (stream length %d)",
			maxResident, cfg.CommitLag, preFlush)
	}
	if lastEnd < preFlush-cfg.CommitLag-1 {
		t.Fatalf("commit frontier %d lags stream of %d windows beyond lag %d",
			lastEnd, preFlush, cfg.CommitLag)
	}
	if commitCalls == 0 {
		t.Fatal("no commits on a long stream")
	}
	res, err := st.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectory) != st.Windows() {
		t.Fatalf("trajectory %d points, want %d", len(res.Trajectory), st.Windows())
	}
}

// TestGreedyIgnoresCommitLag: the greedy decoder has no smoothing lag;
// CommitLag must not break it or fire OnCommit.
func TestGreedyIgnoresCommitLag(t *testing.T) {
	samples, ants := synthSamples(t, 'C', 41)
	cfg := Config{Antennas: ants, CommitLag: 8, GreedyDecode: true}
	tr := New(cfg)
	st := tr.Stream()
	st.OnCommit = func(start int, seg geom.Polyline) {
		t.Fatal("OnCommit fired under GreedyDecode")
	}
	if err := st.Push(samples...); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Finalize(); err != nil {
		t.Fatal(err)
	}
}
