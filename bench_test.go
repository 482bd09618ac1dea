// Package main's benchmark harness regenerates every table and figure
// of the paper's evaluation (see DESIGN.md for the experiment index
// and EXPERIMENTS.md for paper-vs-measured). Each benchmark prints the
// same rows/series the paper reports via b.Log and reports the headline
// quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the evaluation end to end. Benchmarks run the experiment
// once per iteration with reduced trial counts (the paper's 100 trials
// per letter would take hours); the trial counts are printed so the
// sampling is explicit. cmd/experiments runs the same experiments with
// configurable trial counts.
package polardraw

import (
	"testing"

	"polardraw/internal/core"
	"polardraw/internal/experiment"
	"polardraw/internal/font"
	"polardraw/internal/geom"
	"polardraw/internal/metrics"
	"polardraw/internal/motion"
	"polardraw/internal/reader"
	"polardraw/internal/recognition"
	"polardraw/internal/rf"
	"polardraw/internal/session"
	"polardraw/internal/tag"
)

// benchLetters is the letter subset used by sweep benchmarks (the full
// alphabet appears in BenchmarkFigure13Letters).
var benchLetters = []rune{'A', 'C', 'M', 'S', 'Z'}

func BenchmarkTable1Cost(b *testing.B) {
	var total int
	for i := 0; i < b.N; i++ {
		c := experiment.Table1Cost()
		total = c.Systems[0].Total
	}
	b.ReportMetric(float64(total), "polardraw-$")
	b.Log(experiment.Table1Cost())
}

func BenchmarkFigure2Trajectory(b *testing.B) {
	sc := experiment.Default(2)
	var trials []experiment.Trial
	for i := 0; i < b.N; i++ {
		var err error
		trials, err = experiment.Figure2Trajectory(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	var ds []float64
	for _, t := range trials {
		ds = append(ds, t.Procrustes*100)
	}
	b.ReportMetric(metrics.Median(ds), "median-cm")
	b.Logf("Figure 2: recovered WOW,M,C,W,Z; per-item Procrustes (cm): %.1f %.1f %.1f %.1f %.1f",
		ds[0], ds[1], ds[2], ds[3], ds[4])
}

func BenchmarkFigure3bRotation(b *testing.B) {
	var res *experiment.FeasibilityResult
	for i := 0; i < b.N; i++ {
		res = experiment.Figure3bRotation(3)
	}
	b.ReportMetric(res.RSSSwing, "rss-swing-dB")
	b.ReportMetric(res.ReadGapFraction*100, "read-gap-%")
	b.Log(res)
}

func BenchmarkFigure3cTranslation(b *testing.B) {
	var res *experiment.FeasibilityResult
	for i := 0; i < b.N; i++ {
		res = experiment.Figure3cTranslation(3)
	}
	b.ReportMetric(res.RSSSwing, "rss-swing-dB")
	b.ReportMetric(res.PhaseSwing, "phase-spread-rad")
	b.Log(res)
}

func BenchmarkFigure9RSSTrends(b *testing.B) {
	sc := experiment.Default(9)
	var res *experiment.RSSTrendResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.Figure9RSSTrends(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.TrendAgreement*100, "trend-agreement-%")
	b.Log(res)
}

func BenchmarkFigure10Correction(b *testing.B) {
	sc := experiment.Default(10)
	var res *experiment.CorrectionResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.Figure10Correction(sc, "WE")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.PostCM, "post-cm")
	b.Log(res)
}

func BenchmarkFigure13Letters(b *testing.B) {
	sc := experiment.Default(13)
	var res *experiment.LetterResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.Figure13Letters(sc, experiment.PolarDraw2, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Confusion.OverallAccuracy()*100, "accuracy-%")
	b.Log(res)
}

func BenchmarkFigure14Confusion(b *testing.B) {
	sc := experiment.Default(14)
	var res *experiment.LetterResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.Figure13Letters(sc, experiment.PolarDraw2, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Confusion.OverallAccuracy()*100, "diag-%")
	b.Logf("Figure 14 confusion matrix (rows=input, per-99 rates):\n%s", res.Confusion.String())
}

func BenchmarkFigure15AirVsBoard(b *testing.B) {
	sc := experiment.Default(15)
	var res *experiment.AirVsBoardResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.Figure15AirVsBoard(sc, 2, 4, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	var board, air float64
	for _, g := range res.Groups {
		board += g.BoardAcc
		air += g.AirAcc
	}
	n := float64(len(res.Groups))
	b.ReportMetric(board/n*100, "board-%")
	b.ReportMetric(air/n*100, "air-%")
	b.Log(res)
}

func BenchmarkTable5Distance(b *testing.B) {
	sc := experiment.Default(5)
	var res *experiment.DistanceSweepResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.Table5Distance(sc, benchLetters, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Headline: accuracy at the 100 cm sweet spot.
	for i, cm := range res.DistancesCM {
		if cm == 100 {
			b.ReportMetric(res.Accuracy[i].Rate()*100, "acc-at-100cm-%")
		}
	}
	b.Log(res)
}

func BenchmarkFigure16Bystander(b *testing.B) {
	sc := experiment.Default(16)
	var res *experiment.BystanderResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.Figure16Bystander(sc, benchLetters, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Headline: dynamic-bystander accuracy at the closest (30 cm) range.
	b.ReportMetric(res.Dynamic[0].Rate()*100, "dyn-30cm-%")
	b.Log(res)
}

func BenchmarkTable6Ablation(b *testing.B) {
	sc := experiment.Default(6)
	var res *experiment.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.Table6Ablation(sc, benchLetters, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.With.Rate()*100, "with-%")
	b.ReportMetric(res.Without.Rate()*100, "without-%")
	b.Log(res)
}

func BenchmarkFigure18Words(b *testing.B) {
	sc := experiment.Default(18)
	var res *experiment.WordResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.Figure18Words(sc, 3, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Acc[experiment.PolarDraw2][0].Rate()*100, "polardraw-2letter-%")
	b.Log(res)
}

func BenchmarkFigure19CDF(b *testing.B) {
	sc := experiment.Default(19)
	var res *experiment.CDFResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.Figure19CDF(sc, benchLetters, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	med, p90 := res.Summary(experiment.PolarDraw2)
	b.ReportMetric(med, "polardraw-median-cm")
	b.ReportMetric(p90, "polardraw-p90-cm")
	b.Log(res)
}

func BenchmarkFigure20Showcase(b *testing.B) {
	sc := experiment.Default(20)
	var res *experiment.ShowcaseResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.Figure20Showcase(sc, 'W', 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Distances[experiment.PolarDraw2], "polardraw-cm")
	b.Log(res)
}

func BenchmarkFigure21Users(b *testing.B) {
	sc := experiment.Default(21)
	var res *experiment.UserResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.Figure21Users(sc, benchLetters, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Acc[experiment.PolarDraw2][0].Rate()*100, "user1-%")
	b.ReportMetric(res.Acc[experiment.PolarDraw2][1].Rate()*100, "user2-stiff-%")
	b.Log(res)
}

func BenchmarkFigure22Distance(b *testing.B) {
	// Same sweep as Table 5 on the comparison rig seed (the paper
	// repeats the distance study in the section 5.3 setup).
	sc := experiment.Default(22)
	var res *experiment.DistanceSweepResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.Table5Distance(sc, benchLetters, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Accuracy[0].Rate()*100, "acc-at-20cm-%")
	b.Log(res)
}

func BenchmarkTable7Elevation(b *testing.B) {
	sc := experiment.Default(7)
	var res *experiment.ElevationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.Table7Elevation(sc, benchLetters, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Headline: spread across settings (paper: flat).
	var lo, hi = 1.0, 0.0
	for _, a := range res.Accuracy {
		r := a.Rate()
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	b.ReportMetric((hi-lo)*100, "spread-pp")
	b.Log(res)
}

func BenchmarkTable8Gamma(b *testing.B) {
	sc := experiment.Default(8)
	var res *experiment.GammaResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.Table8Gamma(sc, benchLetters, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Accuracy[0].Rate()*100, "gamma15-%")
	b.ReportMetric(res.Accuracy[len(res.Accuracy)-1].Rate()*100, "gamma75-%")
	b.Log(res)
}

// --- Ablation benchmarks (DESIGN.md "design choices") ---

// ablationDistance tracks a fixed letter corpus with a modified core
// configuration and returns the median Procrustes distance in cm.
func ablationDistance(b *testing.B, mod func(*core.Config)) float64 {
	b.Helper()
	rig := motion.DefaultRig()
	ants := rig.Antennas()
	ch := &rf.Channel{Reflectors: rf.OfficeReflectors(rig.BoardW)}
	var ds []float64
	for li, r := range benchLetters {
		g, ok := font.Lookup(r)
		if !ok {
			b.Fatalf("no glyph %c", r)
		}
		path := g.Path().Scale(0.2).Translate(geom.Vec2{X: 0.18, Y: 0.02})
		for k := 0; k < 2; k++ {
			seed := uint64(li*100 + k + 1)
			sess := motion.Write(path, string(r), motion.Config{Seed: seed})
			rd := reader.New(reader.Config{
				Antennas: ants[:], Channel: ch, EPC: tag.AD227(1).EPC, Seed: seed,
			})
			cfg := core.Config{Antennas: ants}
			if mod != nil {
				mod(&cfg)
			}
			res, err := core.New(cfg).Track(rd.Inventory(sess))
			if err != nil {
				b.Fatal(err)
			}
			d, err := geom.ProcrustesDistance(res.Trajectory, sess.Truth, 64)
			if err != nil {
				b.Fatal(err)
			}
			ds = append(ds, d*100)
		}
	}
	return metrics.Median(ds)
}

func BenchmarkAblationWindowMean(b *testing.B) {
	var full, abl float64
	for i := 0; i < b.N; i++ {
		full = ablationDistance(b, nil)
		abl = ablationDistance(b, func(c *core.Config) { c.ArithmeticPhaseMean = true })
	}
	b.ReportMetric(full, "circular-median-cm")
	b.ReportMetric(abl, "arithmetic-median-cm")
	b.Logf("window mean ablation: circular %.1f cm vs arithmetic %.1f cm", full, abl)
}

func BenchmarkAblationHyperbola(b *testing.B) {
	var full, abl float64
	for i := 0; i < b.N; i++ {
		full = ablationDistance(b, nil)
		abl = ablationDistance(b, func(c *core.Config) { c.DisableHyperbola = true })
	}
	b.ReportMetric(full, "with-median-cm")
	b.ReportMetric(abl, "without-median-cm")
	b.Logf("hyperbola ablation: with %.1f cm vs without %.1f cm", full, abl)
}

func BenchmarkAblationGreedy(b *testing.B) {
	var full, abl float64
	for i := 0; i < b.N; i++ {
		full = ablationDistance(b, nil)
		abl = ablationDistance(b, func(c *core.Config) { c.GreedyDecode = true })
	}
	b.ReportMetric(full, "viterbi-median-cm")
	b.ReportMetric(abl, "greedy-median-cm")
	b.Logf("decoder ablation: Viterbi %.1f cm vs greedy %.1f cm", full, abl)
}

func BenchmarkAblationSectorCorrection(b *testing.B) {
	var full, abl float64
	for i := 0; i < b.N; i++ {
		full = ablationDistance(b, nil)
		abl = ablationDistance(b, func(c *core.Config) { c.DisableSectorCorrection = true })
	}
	b.ReportMetric(full, "with-median-cm")
	b.ReportMetric(abl, "without-median-cm")
	b.Logf("sector correction ablation: with %.1f cm vs without %.1f cm", full, abl)
}

func BenchmarkAblationRadial(b *testing.B) {
	var off, on float64
	for i := 0; i < b.N; i++ {
		off = ablationDistance(b, nil)
		on = ablationDistance(b, func(c *core.Config) { c.UseRadialSolve = true })
	}
	b.ReportMetric(off, "default-median-cm")
	b.ReportMetric(on, "radial-median-cm")
	b.Logf("radial-solve ablation: default(off) %.1f cm vs on %.1f cm", off, on)
}

func BenchmarkAblationModulation(b *testing.B) {
	// Section 4 auto-selection vs pinning the noisiest scheme.
	rig := motion.DefaultRig()
	ants := rig.Antennas()
	ch := &rf.Channel{Reflectors: rf.OfficeReflectors(rig.BoardW)}
	g, _ := font.Lookup('M')
	path := g.Path().Scale(0.2).Translate(geom.Vec2{X: 0.18, Y: 0.02})
	run := func(mod *reader.Modulation) float64 {
		var ds []float64
		for k := 0; k < 4; k++ {
			sess := motion.Write(path, "M", motion.Config{Seed: uint64(k + 1)})
			rd := reader.New(reader.Config{
				Antennas: ants[:], Channel: ch, EPC: tag.AD227(1).EPC,
				Modulation: mod, Seed: uint64(k + 1),
			})
			res, err := core.New(core.Config{Antennas: ants}).Track(rd.Inventory(sess))
			if err != nil {
				b.Fatal(err)
			}
			d, _ := geom.ProcrustesDistance(res.Trajectory, sess.Truth, 64)
			ds = append(ds, d*100)
		}
		return metrics.Median(ds)
	}
	fm0 := reader.StandardModulations()[0]
	var auto, pinned float64
	for i := 0; i < b.N; i++ {
		auto = run(nil)
		pinned = run(&fm0)
	}
	b.ReportMetric(auto, "auto-median-cm")
	b.ReportMetric(pinned, "fm0-median-cm")
	b.Logf("modulation ablation: auto-select %.1f cm vs pinned FM0 %.1f cm", auto, pinned)
}

// BenchmarkTrackLetter measures raw tracking throughput (pipeline cost
// per letter, excluding simulation).
func BenchmarkTrackLetter(b *testing.B) {
	rig := motion.DefaultRig()
	ants := rig.Antennas()
	ch := &rf.Channel{Reflectors: rf.OfficeReflectors(rig.BoardW)}
	g, _ := font.Lookup('Z')
	path := g.Path().Scale(0.2).Translate(geom.Vec2{X: 0.18, Y: 0.02})
	sess := motion.Write(path, "Z", motion.Config{Seed: 1})
	rd := reader.New(reader.Config{Antennas: ants[:], Channel: ch, EPC: tag.AD227(1).EPC, Seed: 1})
	samples := rd.Inventory(sess)
	tr := core.New(core.Config{Antennas: ants})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Track(samples); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamTracker measures the incremental pipeline: the same
// letter as BenchmarkTrackLetter, pushed sample-at-a-time through a
// StreamTracker and finalized — the cost of the streaming path
// relative to batch Track.
func BenchmarkStreamTracker(b *testing.B) {
	rig := motion.DefaultRig()
	ants := rig.Antennas()
	ch := &rf.Channel{Reflectors: rf.OfficeReflectors(rig.BoardW)}
	g, _ := font.Lookup('Z')
	path := g.Path().Scale(0.2).Translate(geom.Vec2{X: 0.18, Y: 0.02})
	sess := motion.Write(path, "Z", motion.Config{Seed: 1})
	rd := reader.New(reader.Config{Antennas: ants[:], Channel: ch, EPC: tag.AD227(1).EPC, Seed: 1})
	samples := rd.Inventory(sess)
	tr := core.New(core.Config{Antennas: ants})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := tr.Stream()
		for _, s := range samples {
			if err := st.Push(s); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := st.Finalize(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(samples)), "samples/op")
}

// BenchmarkStreamTrackerTopK is BenchmarkStreamTracker with the
// count-bounded beam at the pinned serving default
// (core.DefaultBeamTopK): the same letter, but per-step decode cost
// bounded by K states instead of the log-window beam's ~70% grid
// coverage. The tracker (and hence the shared stencil cache) persists
// across iterations, matching the serving tier where thousands of
// sessions share one grid.
func BenchmarkStreamTrackerTopK(b *testing.B) {
	rig := motion.DefaultRig()
	ants := rig.Antennas()
	ch := &rf.Channel{Reflectors: rf.OfficeReflectors(rig.BoardW)}
	g, _ := font.Lookup('Z')
	path := g.Path().Scale(0.2).Translate(geom.Vec2{X: 0.18, Y: 0.02})
	sess := motion.Write(path, "Z", motion.Config{Seed: 1})
	rd := reader.New(reader.Config{Antennas: ants[:], Channel: ch, EPC: tag.AD227(1).EPC, Seed: 1})
	samples := rd.Inventory(sess)
	tr := core.New(core.Config{Antennas: ants, BeamTopK: core.DefaultBeamTopK})
	b.ResetTimer()
	var ds core.DecodeStats
	for i := 0; i < b.N; i++ {
		st := tr.Stream()
		for _, s := range samples {
			if err := st.Push(s); err != nil {
				b.Fatal(err)
			}
		}
		ds = st.DecodeStats()
		if _, err := st.Finalize(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(samples)), "samples/op")
	b.ReportMetric(ds.ActiveMean, "active-cells/op")
	hits, misses := tr.StencilCacheStats()
	if hits+misses > 0 {
		b.ReportMetric(float64(hits)/float64(hits+misses)*100, "stencil-hit-%")
	}
}

// BenchmarkStreamTrackerServing is BenchmarkStreamTracker at the
// serving config: the count-bounded beam (core.DefaultBeamTopK) and
// fixed-lag smoothing (core.DefaultCommitLag) with an OnCommit hook, as
// every session of the serving tier decodes. B/op here is the decoder's
// per-letter allocation at the config that memory-bound deployments
// run.
func BenchmarkStreamTrackerServing(b *testing.B) {
	rig := motion.DefaultRig()
	ants := rig.Antennas()
	ch := &rf.Channel{Reflectors: rf.OfficeReflectors(rig.BoardW)}
	g, _ := font.Lookup('Z')
	path := g.Path().Scale(0.2).Translate(geom.Vec2{X: 0.18, Y: 0.02})
	sess := motion.Write(path, "Z", motion.Config{Seed: 1})
	rd := reader.New(reader.Config{Antennas: ants[:], Channel: ch, EPC: tag.AD227(1).EPC, Seed: 1})
	samples := rd.Inventory(sess)
	tr := core.New(core.Config{Antennas: ants, BeamTopK: core.DefaultBeamTopK, CommitLag: core.DefaultCommitLag})
	b.ReportAllocs()
	b.ResetTimer()
	committed := 0
	for i := 0; i < b.N; i++ {
		st := tr.Stream()
		st.OnCommit = func(_ int, seg geom.Polyline) { committed += len(seg) }
		for _, s := range samples {
			if err := st.Push(s); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := st.Finalize(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(samples)), "samples/op")
	b.ReportMetric(float64(committed)/float64(b.N), "committed/op")
}

// BenchmarkSessionServer measures the full serving layer: a mixed
// four-pen inventory demultiplexed through the session manager's
// per-pen queues, workers, and incremental trackers.
func BenchmarkSessionServer(b *testing.B) {
	rig := motion.DefaultRig()
	ants := rig.Antennas()
	ch := &rf.Channel{Reflectors: rf.OfficeReflectors(rig.BoardW)}
	tag.AD227(1).ApplyTo(ch)
	letters := []rune{'H', 'E', 'L', 'O'}
	scenes := make([]reader.TaggedScene, 0, len(letters))
	for k, r := range letters {
		g, _ := font.Lookup(r)
		path := g.Path().Scale(0.2).Translate(geom.Vec2{X: 0.18, Y: 0.03})
		sess := motion.Write(path, string(r), motion.Config{Seed: uint64(k + 1)})
		scenes = append(scenes, reader.TaggedScene{EPC: tag.AD227(uint32(k + 1)).EPC, Scene: sess})
	}
	rd := reader.New(reader.Config{Antennas: ants[:], Channel: ch, EPC: scenes[0].EPC, Seed: 1})
	samples := rd.MultiInventory(scenes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := session.NewManager(session.Config{
			Tracker: core.Config{Antennas: ants, Window: 0.3},
		})
		if err := m.DispatchBatch(samples); err != nil {
			b.Fatal(err)
		}
		results := m.Close()
		if len(results) != len(scenes) {
			b.Fatalf("decoded %d of %d pens", len(results), len(scenes))
		}
	}
	b.ReportMetric(float64(len(samples)), "samples/op")
	b.ReportMetric(float64(len(scenes)), "pens/op")
}

// BenchmarkStreamTrackerLag is BenchmarkStreamTracker with fixed-lag
// smoothing enabled: the same decode with memory bounded to CommitLag
// beam records, plus the cost of per-window commit detection.
func BenchmarkStreamTrackerLag(b *testing.B) {
	rig := motion.DefaultRig()
	ants := rig.Antennas()
	ch := &rf.Channel{Reflectors: rf.OfficeReflectors(rig.BoardW)}
	g, _ := font.Lookup('Z')
	path := g.Path().Scale(0.2).Translate(geom.Vec2{X: 0.18, Y: 0.02})
	sess := motion.Write(path, "Z", motion.Config{Seed: 1})
	rd := reader.New(reader.Config{Antennas: ants[:], Channel: ch, EPC: tag.AD227(1).EPC, Seed: 1})
	samples := rd.Inventory(sess)
	tr := core.New(core.Config{Antennas: ants, CommitLag: 16})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := tr.Stream()
		for _, s := range samples {
			if err := st.Push(s); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := st.Finalize(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(samples)), "samples/op")
}

// BenchmarkRecognizeLetter measures classifier throughput.
func BenchmarkRecognizeLetter(b *testing.B) {
	lr := recognition.NewLetterRecognizer()
	g, _ := font.Lookup('Q')
	traj := g.Path().Scale(0.2).Resample(80)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := lr.Classify(traj); err != nil {
			b.Fatal(err)
		}
	}
}
