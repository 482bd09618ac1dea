package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"time"

	"polardraw/internal/core"
	"polardraw/internal/font"
	"polardraw/internal/geom"
	"polardraw/internal/llrp"
	"polardraw/internal/motion"
	"polardraw/internal/reader"
	"polardraw/internal/rf"
	"polardraw/internal/rng"
	"polardraw/internal/tag"
)

// Load shape shared by every workload: the same pens at about the
// same offered rate, so differences between workloads come from the
// serving tier.
const (
	numPens     = 144
	tickLen     = 5 * time.Millisecond // one LLRP report per tick
	maxStagger  = 2.0                  // pens start within [0, maxStagger) s
	checkpointN = 50                   // closed windows per session checkpoint
	letterScale = 0.2                  // letter height in metres
)

// spec describes one workload.
type spec struct {
	name    string
	cluster bool    // two shard servers over loopback TCP with a WAL
	handoff float64 // Client.Handoff calls per second (0 = none)
	letters string  // base-stroke alphabet
	// variants > 0 reuses a fixed, seed-independent pool of
	// len(letters)*variants base strokes; 0 synthesizes a fresh stroke
	// for every stroke written.
	variants int
	// gapLo..gapHi bounds the pen-up gap. zipf > 0 skews it by pen
	// popularity instead: pen p, the p-th most popular, waits
	// gapLo + (gapHi-gapLo)*(1 - (p+1)^-zipf), so hot pens write their
	// strokes nearly back to back.
	gapLo, gapHi float64
	zipf         float64
}

var workloads = []spec{
	{
		name:    "live-local",
		letters: "ABCDEFGHIJKLMNOPQRSTUVWXYZ",
		gapLo:   2.0, gapHi: 5.0,
	},
	{
		name:    "cluster-wal",
		cluster: true,
		letters: "ABCDEFGHIJKLMNOPQRSTUVWXYZ",
		gapLo:   2.0, gapHi: 5.0,
	},
	{
		name:     "cluster-handoff",
		cluster:  true,
		handoff:  12,
		letters:  "COSUVZ",
		variants: 2,
		gapLo:    0.05, gapHi: 2.5, zipf: 1,
	},
}

func lookupSpec(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// baseStroke is one synthesized letter as a reader delivers it, with
// its in-process reference decode. Sample timestamps stay those of the
// base stream in every replay, so one reference serves every stroke
// that reuses it.
type baseStroke struct {
	letter  rune
	samples []reader.Sample // canonical: LLRP round-tripped, EPC unset
	dur     float64         // seconds from first to last sample
	truth   geom.Polyline   // written ground truth
	ref     *core.Result
	// Events the reference emitted while flushing in Finalize rather
	// than on a sample: the live point of the window closed at pen-up,
	// and commits from flushCommitFrom on. Their latency is not timed.
	flushPointT     float64
	flushCommitFrom int
}

// stroke is one stroke written by one pen.
type stroke struct {
	pen, k    int // pen index and stroke index within the pen
	base      *baseStroke
	start     float64 // due offset of the first sample, s
	end       float64 // due offset of the last sample, s
	firstTick int
	lastTick  int
}

// penSpec is one pen: a fixed EPC writing its strokes in order.
type penSpec struct {
	epc     string
	strokes []int // indices into schedule.strokes
}

// tick is one pacing slot: the LLRP frame a reader reports at due.
type tick struct {
	due    time.Duration // offset from the run's start
	frame  []byte        // pre-encoded RO_ACCESS_REPORT
	n      int           // samples in the frame
	pens   []int         // pens with samples in the frame
	starts []int         // strokes whose first sample is in the frame
	ends   []int         // strokes whose last sample is in the frame
}

// schedule is a whole open-loop run, fixed by the workload and seed.
type schedule struct {
	seconds float64
	pens    []penSpec
	strokes []stroke
	bases   []*baseStroke
	ticks   []tick
	samples int
	penIdx  map[string]int // EPC -> pen
}

// offeredRate is the mean offered load in samples per second.
func (s *schedule) offeredRate() float64 { return float64(s.samples) / s.seconds }

// rig holds the simulated reader set-up every stroke is written on.
type rig struct {
	ants [2]rf.Antenna
	ch   *rf.Channel
}

func newRig() rig {
	r := motion.DefaultRig()
	ch := &rf.Channel{Reflectors: rf.OfficeReflectors(r.BoardW)}
	tag.AD227(1).ApplyTo(ch)
	return rig{ants: r.Antennas(), ch: ch}
}

// servingConfig is the decode configuration of the serving defaults
// (options.go): the reference decodes exactly what the tier decodes.
func servingConfig(ants [2]rf.Antenna) core.Config {
	return core.Config{Antennas: ants, BeamTopK: core.DefaultBeamTopK, CommitLag: core.DefaultCommitLag}
}

// synth writes one letter and reads it with the simulated reader. The
// samples are passed once through the LLRP codec so they carry exactly
// the values the tier will decode off the wire.
func (rg rig) synth(letter rune, seed uint64) (*baseStroke, error) {
	g, ok := font.Lookup(letter)
	if !ok {
		return nil, fmt.Errorf("no glyph for %q", letter)
	}
	path := g.Path().Scale(letterScale).Translate(geom.Vec2{X: 0.18, Y: 0.03})
	mc := motion.Config{Seed: seed}
	sess := motion.Write(path, string(letter), mc)
	rd := reader.New(reader.Config{Antennas: rg.ants[:], Channel: rg.ch, EPC: "00", Seed: seed})
	raw := rd.Inventory(sess)
	if len(raw) < 2 {
		return nil, fmt.Errorf("letter %q seed %d: only %d reads", letter, seed, len(raw))
	}
	smps := llrp.ReportsToSamples(llrp.SamplesToReports(raw))
	for i := range smps {
		smps[i].EPC = ""
	}
	return &baseStroke{
		letter:  letter,
		samples: smps,
		dur:     smps[len(smps)-1].T - smps[0].T,
		truth:   motion.WrittenTruth(sess, mc),
	}, nil
}

// decodeReference decodes the stroke in process and records which of
// its events only the pen-up flush produces.
func (b *baseStroke) decodeReference(tr *core.Tracker) error {
	st := tr.Stream()
	flushing := false
	b.flushPointT = math.Inf(1)
	b.flushCommitFrom = math.MaxInt
	st.OnWindow = func(w core.Window, _ geom.Vec2) {
		if flushing && w.T < b.flushPointT {
			b.flushPointT = w.T
		}
	}
	st.OnCommit = func(start int, _ geom.Polyline) {
		if flushing && start < b.flushCommitFrom {
			b.flushCommitFrom = start
		}
	}
	if err := st.Push(b.samples...); err != nil {
		return err
	}
	flushing = true
	res, err := st.Finalize()
	if err != nil {
		return fmt.Errorf("reference decode of %q: %w", b.letter, err)
	}
	b.ref = res
	return nil
}

// decodeReferences runs decodeReference over bases on two goroutines.
func decodeReferences(ants [2]rf.Antenna, bases []*baseStroke) error {
	tr := core.New(servingConfig(ants))
	const workers = 2
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(bases); i += workers {
				if err := bases[i].decodeReference(tr); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// penEPC is pen p's 96-bit EPC as lowercase hex (LLRP carries it as
// bytes).
func penEPC(prefix uint32, p int) string { return fmt.Sprintf("%08x%016x", prefix, p) }

// buildSchedule synthesizes a run of the workload: every pen's strokes,
// the reference decodes, and the LLRP frames of every pacing tick.
// The same workload, seed and length give the same schedule.
func buildSchedule(sp spec, rg rig, seed uint64, seconds float64) (*schedule, error) {
	root := rng.New(seed)
	s := &schedule{seconds: seconds, penIdx: make(map[string]int, numPens)}

	var pool []*baseStroke
	if sp.variants > 0 {
		// The reused pool is the same for every seed; the seed decides
		// who writes what, and when.
		for i, l := range sp.letters {
			for v := 0; v < sp.variants; v++ {
				b, err := rg.synth(l, uint64(2000+10*i+v))
				if err != nil {
					return nil, err
				}
				pool = append(pool, b)
			}
		}
		s.bases = pool
	}
	letters := []rune(sp.letters)
	for p := 0; p < numPens; p++ {
		pr := root.Fork(100 + uint64(p))
		ps := penSpec{epc: penEPC(0xe2801160, p)}
		s.penIdx[ps.epc] = p
		t := pr.Uniform(0, maxStagger)
		for k := 0; ; k++ {
			// Near the end of the run a pen tries a few more strokes for
			// one that still fits, so the load does not thin out early.
			var b *baseStroke
			for try := 0; try < 8 && b == nil; try++ {
				if pool != nil {
					b = pool[pr.Intn(len(pool))]
				} else {
					var err error
					if b, err = rg.synth(letters[pr.Intn(len(letters))], pr.Uint64()); err != nil {
						return nil, err
					}
				}
				if t+b.dur >= seconds {
					b = nil
				}
			}
			if b == nil {
				break
			}
			if pool == nil {
				s.bases = append(s.bases, b)
			}
			ps.strokes = append(ps.strokes, len(s.strokes))
			s.strokes = append(s.strokes, stroke{pen: p, k: k, base: b, start: t, end: t + b.dur})
			gap := pr.Uniform(sp.gapLo, sp.gapHi)
			if sp.zipf > 0 {
				gap = sp.gapLo + (sp.gapHi-sp.gapLo)*(1-math.Pow(float64(p+1), -sp.zipf))
			}
			t += b.dur + gap
		}
		s.pens = append(s.pens, ps)
	}
	if len(s.strokes) == 0 {
		return nil, fmt.Errorf("a %gs run fits no stroke", seconds)
	}
	if err := decodeReferences(rg.ants, s.bases); err != nil {
		return nil, err
	}
	return s, s.encodeTicks()
}

// encodeTicks bins every sample into the tick at or after its due time
// and pre-encodes each tick's samples as one RO_ACCESS_REPORT.
func (s *schedule) encodeTicks() error {
	type entry struct {
		due float64
		smp reader.Sample
	}
	tl := tickLen.Seconds()
	nt := int(math.Ceil(s.seconds/tl)) + 1
	bins := make([][]entry, nt)
	s.ticks = make([]tick, nt)
	tickOf := func(due float64) int { return int(math.Floor(due/tl)) + 1 }
	for i := range s.strokes {
		st := &s.strokes[i]
		epc := s.pens[st.pen].epc
		t0 := st.base.samples[0].T
		for _, smp := range st.base.samples {
			due := st.start + (smp.T - t0)
			smp.EPC = epc
			k := tickOf(due)
			bins[k] = append(bins[k], entry{due, smp})
		}
		st.firstTick, st.lastTick = tickOf(st.start), tickOf(st.end)
		s.ticks[st.firstTick].starts = append(s.ticks[st.firstTick].starts, i)
		s.ticks[st.lastTick].ends = append(s.ticks[st.lastTick].ends, i)
		s.samples += len(st.base.samples)
	}
	var buf bytes.Buffer
	for k := range bins {
		tk := &s.ticks[k]
		tk.due = time.Duration(float64(k) * float64(tickLen))
		if len(bins[k]) == 0 {
			continue
		}
		sort.SliceStable(bins[k], func(i, j int) bool { return bins[k][i].due < bins[k][j].due })
		smps := make([]reader.Sample, len(bins[k]))
		seen := make(map[int]bool)
		for i, e := range bins[k] {
			smps[i] = e.smp
			if p := s.penIdx[e.smp.EPC]; !seen[p] {
				seen[p] = true
				tk.pens = append(tk.pens, p)
			}
		}
		msg, err := llrp.EncodeROAccessReport(uint32(k), llrp.SamplesToReports(smps))
		if err != nil {
			return err
		}
		buf.Reset()
		if err := llrp.WriteMessage(&buf, msg); err != nil {
			return err
		}
		tk.frame = bytes.Clone(buf.Bytes())
		tk.n = len(smps)
	}
	return nil
}

// decodeFrame turns one tick's frame back into samples the way a
// reader connection would.
func decodeFrame(frame []byte) ([]reader.Sample, error) {
	msg, err := llrp.ReadMessage(bytes.NewReader(frame))
	if err != nil {
		return nil, err
	}
	reps, err := llrp.DecodeROAccessReport(msg)
	if err != nil {
		return nil, err
	}
	return llrp.ReportsToSamples(reps), nil
}

// warmup is the fixed, unpaced stroke set decoded during set-up so
// lazy grid and stencil set-up is paid before the timed run.
type warmup struct {
	epcs  []string
	bases []*baseStroke
}

func buildWarmup(rg rig) (*warmup, error) {
	const letters = "POLARDRAWSET"
	w := &warmup{}
	for i, l := range letters {
		b, err := rg.synth(l, uint64(1000+i))
		if err != nil {
			return nil, err
		}
		w.bases = append(w.bases, b)
		w.epcs = append(w.epcs, penEPC(0xe2801170, i))
	}
	return w, decodeReferences(rg.ants, w.bases)
}

// checkResult is the correctness gate for one stroke: the tier's
// result must be bit-identical to the in-process reference decode.
func checkResult(res, ref *core.Result) error {
	if res == nil {
		return errors.New("no result")
	}
	if !reflect.DeepEqual(res, ref) {
		return fmt.Errorf("result differs from its reference (%d vs %d trajectory points)", len(res.Trajectory), len(ref.Trajectory))
	}
	return nil
}
