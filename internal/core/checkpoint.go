package core

import (
	"errors"
	"fmt"
	"math"

	"polardraw/internal/codec"
	"polardraw/internal/geom"
)

// Checkpointing: StreamTracker.Snapshot serializes the complete
// mid-stroke decode state — windowing, spurious-rejection, direction
// evidence, and the fixed-lag Viterbi beam — into a self-describing
// byte string, and Tracker.RestoreStream rebuilds a StreamTracker from
// it that continues bit-identically to the uninterrupted stream. This
// is the substrate of the serving tier's durability: shards emit
// periodic checkpoints, and a session that must move (shard death,
// membership change) resumes on the new shard from checkpoint plus a
// WAL replay of the samples dispatched after it.
//
// The snapshot embeds the stream-level configuration, so restore needs
// only a Tracker with the same grid (antennas, board, cell size,
// wavelength — checked via the grid dimensions). Scratch state
// (stencil buffers, selection scratch, merge-detection marks) is
// derivable and deliberately not serialized; the beam records behind
// the commit point are O(lag x beam), so snapshots stay small under
// Config.CommitLag and Config.BeamTopK.
//
// The format is versioned (ckptVersion) and written with
// internal/codec: scalars are big-endian, floats are IEEE-754 bit
// patterns so values round-trip exactly.
// Version 2 stores the decoder's beam records; version 1 (dense
// per-step backpointer vectors) is refused.

const (
	ckptMagic   = 0x5044434b // "PDCK"
	ckptVersion = 2
)

// Serialized sizes, bytes: ckptWindowSize is one closed window,
// ckptHeaderSize everything before the open window's phase lists that
// does not depend on the state's lengths, ckptVitSize the Viterbi
// scalars.
const (
	ckptWindowSize = 8 + 2*24 + 1
	ckptHeaderSize = 4 + 1 + 8 + 2*4 + // magic, version, covered, grid
		7*8 + 2*8 + 4 + // stream configuration
		1 + 4*8 + // windowing scalars
		2*(8+8+4) + // open window accumulators
		4 + // window count
		2*8 + 1 + 8 + 8 + 8 + 1 + // direction evidence
		1 // decoder kind
	ckptVitSize = 11 * 8
)

// maxRestoredScore bounds the magnitude of a restored log-probability. A real
// decode moves each score by tens of nats per step at most; far beyond
// this the float64 spacing exceeds the beam window and the prune would
// empty the beam.
const maxRestoredScore = 1 << 50

// ErrBadSnapshot reports a snapshot that cannot be parsed or that was
// taken against an incompatible grid.
var ErrBadSnapshot = errors.New("core: bad or incompatible snapshot")

// decoder-kind discriminator inside the snapshot.
const (
	ckptDecoderNone = 0
	ckptDecoderVit  = 1
	ckptDecoderGre  = 2
)

// configBits packs the boolean configuration switches.
func configBits(cfg Config) uint16 {
	var bits uint16
	set := func(i int, on bool) {
		if on {
			bits |= 1 << i
		}
	}
	set(0, cfg.BeamAdaptive)
	set(1, cfg.DisableStencilCache)
	set(2, cfg.DisablePolarization)
	set(3, cfg.DisableHyperbola)
	set(4, cfg.GreedyDecode)
	set(5, cfg.DisableSectorCorrection)
	set(6, cfg.ArithmeticPhaseMean)
	set(7, cfg.TestNoRotDir)
	set(8, cfg.UseRadialSolve)
	return bits
}

func configFromBits(cfg *Config, bits uint16) {
	cfg.BeamAdaptive = bits&(1<<0) != 0
	cfg.DisableStencilCache = bits&(1<<1) != 0
	cfg.DisablePolarization = bits&(1<<2) != 0
	cfg.DisableHyperbola = bits&(1<<3) != 0
	cfg.GreedyDecode = bits&(1<<4) != 0
	cfg.DisableSectorCorrection = bits&(1<<5) != 0
	cfg.ArithmeticPhaseMean = bits&(1<<6) != 0
	cfg.TestNoRotDir = bits&(1<<7) != 0
	cfg.UseRadialSolve = bits&(1<<8) != 0
}

// Snapshot serializes the tracker's complete decode state. A tracker
// restored from the returned bytes (Tracker.RestoreStream) and fed the
// remaining samples produces bit-identical windows, commits, and
// Finalize result to this tracker fed the same samples uninterrupted.
// Snapshot does not mutate the tracker and may be called between any
// two Pushes; it fails after Finalize.
func (s *StreamTracker) Snapshot() ([]byte, error) {
	if s.finalized {
		return nil, ErrFinalized
	}
	w := codec.NewEncoder(make([]byte, 0, s.snapshotSize()))
	w.U32(ckptMagic)
	w.U8(ckptVersion)
	w.U64(uint64(s.received)) // covered count, fixed header offset
	w.U32(uint32(s.grid.nx))
	w.U32(uint32(s.grid.ny))

	// Stream-level configuration (grid-level fields travel implicitly
	// via the nx/ny compatibility check: restore reuses the target
	// tracker's grid).
	cfg := s.cfg
	w.F64(cfg.Window)
	w.F64(cfg.SpuriousPhase)
	w.F64(cfg.ModeDelta)
	w.F64(cfg.StepDelta)
	w.F64(cfg.DeltaBeta)
	w.F64(cfg.Elevation)
	w.F64(cfg.VMax)
	w.I64(int64(cfg.BeamTopK))
	w.I64(int64(cfg.CommitLag))
	w.U32(uint32(configBits(cfg)))

	// Windowing state.
	w.Bool(s.started)
	w.F64(s.startT)
	w.I64(int64(s.openIdx))
	w.I64(int64(s.spurious))
	w.I64(int64(s.dropped))
	for a := 0; a < 2; a++ {
		w.F64(s.open.rssSum[a])
		w.I64(int64(s.open.count[a]))
		w.U32(uint32(len(s.open.phases[a])))
		for _, p := range s.open.phases[a] {
			w.F64(p)
		}
	}
	w.U32(uint32(len(s.windows)))
	for _, win := range s.windows {
		w.F64(win.T)
		for a := 0; a < 2; a++ {
			w.F64(win.RSS[a])
			w.F64(win.Phase[a])
			w.I64(int64(win.Count[a]))
		}
		var flags uint8
		if win.Valid {
			flags |= 1
		}
		if win.Spurious[0] {
			flags |= 2
		}
		if win.Spurious[1] {
			flags |= 4
		}
		w.U8(flags)
	}

	// Direction-evidence state.
	w.I64(int64(s.eb.rot))
	w.I64(int64(s.eb.trans))
	az := s.eb.az
	w.Bool(az.started)
	w.F64(az.alpha)
	w.I64(int64(int(az.sector)))
	w.F64(az.correction)
	w.Bool(az.corrected)

	// Decoder state.
	switch {
	case s.vit != nil:
		w.U8(ckptDecoderVit)
		s.vit.snapshot(&w)
	case s.gre != nil:
		w.U8(ckptDecoderGre)
		w.I64(int64(s.gre.cur))
		w.U32(uint32(len(s.gre.path)))
		for _, c := range s.gre.path {
			w.I64(int64(c))
		}
	default:
		w.U8(ckptDecoderNone)
	}
	return w.Bytes(), nil
}

// snapshotSize is the exact length of Snapshot's output, so the
// snapshot is built in a single allocation.
func (s *StreamTracker) snapshotSize() int {
	n := ckptHeaderSize + 8*(len(s.open.phases[0])+len(s.open.phases[1])) +
		ckptWindowSize*len(s.windows)
	switch {
	case s.vit != nil:
		n += s.vit.snapshotSize()
	case s.gre != nil:
		n += 8 + 4 + 8*len(s.gre.path)
	}
	return n
}

// snapshotSize is the length of snapshot's output.
func (v *viterbiState) snapshotSize() int {
	n := ckptVitSize + 4 + 4*len(v.committed) + 4 + 12*len(v.active) + 4
	for j := range v.back {
		n += 4 + 4*len(v.back[j].cells)
		if j > 0 {
			n += 4 * len(v.back[j].pred)
		}
	}
	return n
}

// snapshot serializes the Viterbi beam: everything step, path, and
// advanceCommit read, omitting derivable scratch. The active list is
// stored with its probability values, then every beam record as its
// cells followed by its predecessor positions (omitted for the oldest
// record, whose predecessors are never read).
func (v *viterbiState) snapshot(w *codec.Encoder) {
	w.I64(int64(v.steps))
	w.F64(v.maxPrev)
	w.I64(int64(v.kCur))
	w.I64(int64(v.commitT))
	w.I64(int64(v.forced))
	w.U64(v.activeSum)
	w.I64(int64(v.activePeak))
	w.U64(v.topkPruned)
	w.I64(int64(v.mergeCommits))
	w.U64(v.stencilHits)
	w.U64(v.stencilMisses)
	w.U32(uint32(len(v.committed)))
	for _, c := range v.committed {
		w.U32(uint32(c))
	}
	w.U32(uint32(len(v.active)))
	for j, i := range v.active {
		w.U32(uint32(i))
		w.F64(v.score[j])
	}
	w.U32(uint32(len(v.back)))
	for j, rec := range v.back {
		w.U32(uint32(len(rec.cells)))
		for _, c := range rec.cells {
			w.U32(uint32(c))
		}
		if j > 0 {
			for _, p := range rec.pred {
				w.U32(uint32(p))
			}
		}
	}
}

// SnapshotCovered reports how many samples the snapshot covers (the
// tracker's Received count when it was taken) without a full restore —
// the WAL replay point after a handoff.
func SnapshotCovered(data []byte) (int, error) {
	r := codec.NewDecoder(data)
	if r.U32() != ckptMagic || r.U8() != ckptVersion {
		return 0, ErrBadSnapshot
	}
	n := int(r.U64())
	if r.Err() != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadSnapshot, r.Err())
	}
	return n, nil
}

// RestoreStream rebuilds a StreamTracker from a Snapshot taken on this
// tracker or any tracker with an identical grid. The restored stream
// carries the snapshot's own stream-level configuration (so per-session
// decode options survive a handoff without retransmission) and, fed
// the samples the snapshot does not cover (see SnapshotCovered),
// evolves bit-identically to the tracker the snapshot was taken from.
// OnWindow/OnCommit hooks are not restored; set them before the next
// Push.
func (tr *Tracker) RestoreStream(data []byte) (*StreamTracker, error) {
	r := codec.NewDecoder(data)
	st, err := tr.restoreStream(&r)
	if err != nil && !errors.Is(err, ErrBadSnapshot) {
		// The decoder's latched short read or bad count.
		err = fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return st, err
}

func (tr *Tracker) restoreStream(r *codec.Decoder) (*StreamTracker, error) {
	if r.U32() != ckptMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	if v := r.U8(); v != ckptVersion {
		return nil, fmt.Errorf("%w: format version %d", ErrBadSnapshot, v)
	}
	received := int(r.U64())
	nx, ny := int(r.U32()), int(r.U32())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nx != tr.grid.nx || ny != tr.grid.ny {
		return nil, fmt.Errorf("%w: snapshot grid %dx%d, tracker grid %dx%d",
			ErrBadSnapshot, nx, ny, tr.grid.nx, tr.grid.ny)
	}

	var cfg Config
	cfg.Window = r.F64()
	cfg.SpuriousPhase = r.F64()
	cfg.ModeDelta = r.F64()
	cfg.StepDelta = r.F64()
	cfg.DeltaBeta = r.F64()
	cfg.Elevation = r.F64()
	cfg.VMax = r.F64()
	cfg.BeamTopK = int(r.I64())
	cfg.CommitLag = int(r.I64())
	configFromBits(&cfg, uint16(r.U32()))
	if r.Err() != nil {
		return nil, r.Err()
	}
	st := tr.StreamWith(cfg)
	st.received = received
	if err := checkStreamConfig(st.cfg); err != nil {
		return nil, err
	}

	st.started = r.Bool()
	st.startT = r.F64()
	st.openIdx = int(r.I64())
	st.spurious = int(r.I64())
	st.dropped = int(r.I64())
	for a := 0; a < 2; a++ {
		st.open.rssSum[a] = r.F64()
		st.open.count[a] = int(r.I64())
		n := r.Count(int(r.U32()), 8)
		if r.Err() != nil {
			return nil, r.Err()
		}
		st.open.phases[a] = make([]float64, n)
		for i := range st.open.phases[a] {
			st.open.phases[a][i] = r.F64()
		}
	}
	nw := r.Count(int(r.U32()), ckptWindowSize)
	if r.Err() != nil {
		return nil, r.Err()
	}
	st.windows = make([]Window, nw)
	for i := range st.windows {
		win := &st.windows[i]
		win.T = r.F64()
		for a := 0; a < 2; a++ {
			win.RSS[a] = r.F64()
			win.Phase[a] = r.F64()
			win.Count[a] = int(r.I64())
		}
		flags := r.U8()
		win.Valid = flags&1 != 0
		win.Spurious[0] = flags&2 != 0
		win.Spurious[1] = flags&4 != 0
	}

	if r.Err() != nil {
		return nil, r.Err()
	}
	if err := st.checkWindowing(); err != nil {
		return nil, err
	}

	st.eb.rot = int(r.I64())
	st.eb.trans = int(r.I64())
	st.eb.az.started = r.Bool()
	st.eb.az.alpha = r.F64()
	st.eb.az.sector = Sector(int(r.I64()))
	st.eb.az.correction = r.F64()
	st.eb.az.corrected = r.Bool()
	if s := st.eb.az.sector; s < SectorUnknown || s > Sector3 {
		return nil, fmt.Errorf("%w: sector %d", ErrBadSnapshot, s)
	}

	switch kind := r.U8(); kind {
	case ckptDecoderNone:
	case ckptDecoderVit:
		vit, err := restoreViterbi(tr.grid, st.cfg, r)
		if err != nil {
			return nil, err
		}
		st.vit = vit
	case ckptDecoderGre:
		gre := &greedyState{g: tr.grid, cfg: st.cfg}
		gre.cur = int(r.I64())
		n := r.Count(int(r.U32()), 8)
		if r.Err() != nil {
			return nil, r.Err()
		}
		gre.path = make([]int, n)
		for i := range gre.path {
			gre.path[i] = int(r.I64())
		}
		st.gre = gre
	default:
		return nil, fmt.Errorf("%w: decoder kind %d", ErrBadSnapshot, kind)
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	if err := st.checkDecoder(); err != nil {
		return nil, err
	}
	return st, nil
}

// checkStreamConfig refuses restored stream parameters no tracker could
// have decoded with (after defaults fill the zero values).
func checkStreamConfig(cfg Config) error {
	if cfg.BeamTopK < 0 || cfg.BeamTopK > math.MaxInt32 {
		return fmt.Errorf("%w: beam bound %d", ErrBadSnapshot, cfg.BeamTopK)
	}
	for _, f := range []float64{cfg.Window, cfg.SpuriousPhase, cfg.ModeDelta,
		cfg.StepDelta, cfg.DeltaBeta, cfg.Elevation, cfg.VMax} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("%w: non-finite stream parameter", ErrBadSnapshot)
		}
	}
	if cfg.Window <= 0 || cfg.VMax <= 0 {
		return fmt.Errorf("%w: window %v, top speed %v", ErrBadSnapshot, cfg.Window, cfg.VMax)
	}
	return nil
}

// checkWindowing refuses restored windowing state Push could not have
// produced: sample counts that disagree with the buffered phases, state
// before the first sample, and window times out of order or outside
// the buckets opened so far.
func (s *StreamTracker) checkWindowing() error {
	if math.IsNaN(s.startT) || math.IsInf(s.startT, 0) || s.openIdx < 0 {
		return fmt.Errorf("%w: stream start %v, bucket %d", ErrBadSnapshot, s.startT, s.openIdx)
	}
	for a := 0; a < 2; a++ {
		if s.open.count[a] != len(s.open.phases[a]) {
			return fmt.Errorf("%w: open window holds %d phases, counts %d",
				ErrBadSnapshot, len(s.open.phases[a]), s.open.count[a])
		}
	}
	if !s.started && (len(s.windows) > 0 || s.open.count != [2]int{}) {
		return fmt.Errorf("%w: windows before the first sample", ErrBadSnapshot)
	}
	end := s.startT + float64(s.openIdx+1)*s.cfg.Window
	for i, w := range s.windows {
		if !(w.T >= s.startT && w.T <= end) || (i > 0 && w.T < s.windows[i-1].T) {
			return fmt.Errorf("%w: window %d at %v", ErrBadSnapshot, i, w.T)
		}
	}
	return nil
}

// checkDecoder requires the restored decoder to match the windows: none
// before the first window, otherwise the configured kind holding one
// state per window.
func (s *StreamTracker) checkDecoder() error {
	nw := len(s.windows)
	var ok bool
	switch {
	case s.vit != nil:
		ok = !s.cfg.GreedyDecode && s.vit.steps == nw-1
	case s.gre != nil:
		ok = s.cfg.GreedyDecode && len(s.gre.path) == nw
		for _, c := range s.gre.path {
			ok = ok && c >= 0 && c < s.grid.size()
		}
		ok = ok && s.gre.cur >= 0 && s.gre.cur < s.grid.size()
	default:
		ok = nw == 0
	}
	if !ok {
		return fmt.Errorf("%w: decoder state does not match %d windows", ErrBadSnapshot, nw)
	}
	return nil
}

// restoreViterbi rebuilds the beam directly (not via seedViterbi,
// which would re-seed and re-prune): the active cells with their
// serialized scores, and the beam records, each sized to what the
// payload holds. Nothing grid-sized is allocated; the decode steps
// borrow their scratch from the grid. Every invariant step,
// path and the commit walks index by is checked here, so a corrupt
// snapshot fails with ErrBadSnapshot instead of a later panic.
func restoreViterbi(g *grid, cfg Config, r *codec.Decoder) (*viterbiState, error) {
	n := g.size()
	v := &viterbiState{g: g, cfg: cfg}
	v.steps = int(r.I64())
	v.maxPrev = r.F64()
	v.kCur = int(r.I64())
	v.commitT = int(r.I64())
	v.forced = int(r.I64())
	v.activeSum = r.U64()
	v.activePeak = int(r.I64())
	v.topkPruned = r.U64()
	v.mergeCommits = int(r.I64())
	v.stencilHits = r.U64()
	v.stencilMisses = r.U64()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if v.commitT < -1 || v.steps <= v.commitT || v.steps > math.MaxInt32 {
		return nil, fmt.Errorf("%w: commit point %d at step %d", ErrBadSnapshot, v.commitT, v.steps)
	}
	// The count bound is 0 before the first step, else BeamTopK, or
	// within the adaptive controller's range (see adaptK).
	kMax := cfg.BeamTopK
	if cfg.BeamAdaptive && kMax > 0 {
		kMax = max(4*kMax, 16)
	}
	if v.kCur < 0 || v.kCur > kMax {
		return nil, fmt.Errorf("%w: beam bound %d", ErrBadSnapshot, v.kCur)
	}

	nc := r.Count(int(r.U32()), 4)
	if r.Err() != nil {
		return nil, r.Err()
	}
	// The commit machinery appends after committed[commitT].
	if nc != v.commitT+1 {
		return nil, fmt.Errorf("%w: committed prefix %d does not match commitT %d",
			ErrBadSnapshot, nc, v.commitT)
	}
	v.committed = make([]int32, nc)
	for i := range v.committed {
		if v.committed[i] = int32(r.U32()); v.committed[i] < 0 || int(v.committed[i]) >= n {
			return nil, fmt.Errorf("%w: committed cell %d out of grid", ErrBadSnapshot, v.committed[i])
		}
	}

	na := r.Count(int(r.U32()), 12)
	if r.Err() != nil {
		return nil, r.Err()
	}
	if na == 0 {
		return nil, fmt.Errorf("%w: empty beam", ErrBadSnapshot)
	}
	v.active = make([]int, 0, na)
	v.score = make([]float64, 0, na)
	best := math.Inf(-1)
	for i := 0; i < na; i++ {
		idx := int(r.U32())
		val := r.F64()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if idx >= n || (i > 0 && idx <= v.active[i-1]) {
			return nil, fmt.Errorf("%w: active cell %d out of grid or order", ErrBadSnapshot, idx)
		}
		if !(math.Abs(val) <= maxRestoredScore) {
			return nil, fmt.Errorf("%w: active score %v", ErrBadSnapshot, val)
		}
		v.active = append(v.active, idx)
		v.score = append(v.score, val)
		best = max(best, val)
	}
	if v.maxPrev != best {
		return nil, fmt.Errorf("%w: beam maximum %v, active scores peak at %v", ErrBadSnapshot, v.maxPrev, best)
	}

	// One record per undecided time, commitT+1..steps.
	nb := r.Count(int(r.U32()), 4)
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nb != v.steps-v.commitT {
		return nil, fmt.Errorf("%w: %d beam records for times %d..%d",
			ErrBadSnapshot, nb, v.commitT+1, v.steps)
	}
	v.back = make([]beamRecord, 0, nb)
	for j := 0; j < nb; j++ {
		m := r.Count(int(r.U32()), 4)
		if r.Err() != nil {
			return nil, r.Err()
		}
		if m == 0 || m > n {
			return nil, fmt.Errorf("%w: beam record of %d states", ErrBadSnapshot, m)
		}
		// Exact-size records: a restore allocates what the payload
		// holds, never the count bound per record, and the oldest
		// record (no predecessors stored) gets no pred half.
		var rec beamRecord
		if j == 0 {
			rec.cells = make([]int32, 0, m)
		} else {
			rec = makeRecord(m)
		}
		// Each half is read in one bulk take: a record is the bulk of a
		// snapshot, and per-element reads dominated the restore.
		rec.cells = r.Int32s(rec.cells, m)
		if j > 0 {
			rec.pred = r.Int32s(rec.pred, m)
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
		for k, c := range rec.cells {
			if c < 0 || int(c) >= n || (k > 0 && c <= rec.cells[k-1]) {
				return nil, fmt.Errorf("%w: record cell %d out of grid or order", ErrBadSnapshot, c)
			}
		}
		if j > 0 {
			np := int32(len(v.back[j-1].cells))
			for _, p := range rec.pred {
				if p < 0 || p >= np {
					return nil, fmt.Errorf("%w: predecessor %d outside a record of %d", ErrBadSnapshot, p, np)
				}
			}
		}
		v.back = append(v.back, rec)
	}
	last := v.back[nb-1].cells
	if len(last) != na {
		return nil, fmt.Errorf("%w: current record does not match the active beam", ErrBadSnapshot)
	}
	for i, c := range last {
		if int(c) != v.active[i] {
			return nil, fmt.Errorf("%w: current record does not match the active beam", ErrBadSnapshot)
		}
	}
	return v, nil
}

// Committed returns the fixed-lag smoother's committed trajectory
// prefix as grid-centre points (the concatenation of every OnCommit
// segment so far). It is empty before the first commit and under
// GreedyDecode. The serving tier uses it to replay commit events to
// subscribers that attach, or re-attach, mid-stroke.
func (s *StreamTracker) Committed() geom.Polyline {
	if s.vit == nil || s.vit.commitT < 0 {
		return nil
	}
	seg := make(geom.Polyline, s.vit.commitT+1)
	for i, c := range s.vit.committed {
		seg[i] = s.grid.center(int(c))
	}
	return seg
}
