package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"polardraw/internal/geom"
	"polardraw/internal/reader"
)

// TestBeamRecordsBoundedByBeam streams a long input under a count
// bound on two grids, the second with four times the cells, and checks
// that the decoder's retained backpointer state is bounded by the lag
// times the beam in both: once time 0 (whose record holds the prior's
// whole support) is committed, the live records never hold more than
// (CommitLag+1) x K states, and the records kept for reuse never hold
// more than a chunk's worth of extra capacity. Neither bound mentions
// the grid.
func TestBeamRecordsBoundedByBeam(t *testing.T) {
	const k, lag = 64, 8
	for _, cell := range []float64{0.005, 0.0025} {
		cfg := Config{Antennas: gridCfg().Antennas, CellSize: cell, BeamTopK: k, CommitLag: lag}
		tr := New(cfg)
		st := tr.Stream()
		checked, maxLive, maxCap := 0, 0, 0
		st.OnWindow = func(Window, geom.Vec2) {
			v := st.vit
			if n := len(v.back); n > lag {
				t.Fatalf("cell %v: %d resident records, lag %d", cell, n, lag)
			}
			if v.commitT < 0 {
				return
			}
			live, capacity := 0, 0
			for _, rec := range v.back {
				live += len(rec.cells)
				capacity += cap(rec.cells)
			}
			for _, rec := range v.pool {
				capacity += cap(rec.cells)
			}
			capacity += cap(v.slab) - len(v.slab)
			maxLive, maxCap = max(maxLive, live), max(maxCap, capacity)
			checked++
		}
		for i := 0; i < 12000; i++ {
			tm := float64(i) * 0.01
			if err := st.Push(reader.Sample{
				T:       tm,
				Antenna: i % 2,
				RSS:     -50 + 2*math.Sin(tm/3),
				Phase:   geom.WrapAngle(1 + 0.05*tm + 0.02*float64(i%2)),
			}); err != nil {
				t.Fatal(err)
			}
		}
		if checked < 1000 {
			t.Fatalf("cell %v: only %d windows checked after the first commit", cell, checked)
		}
		if maxLive > (lag+1)*k {
			t.Fatalf("cell %v: %d live record states, bound (lag+1)*K = %d", cell, maxLive, (lag+1)*k)
		}
		if limit := (lag + 1 + recordChunk) * k; maxCap > limit {
			t.Fatalf("cell %v: %d record slots retained, bound %d (grid %d cells)",
				cell, maxCap, limit, tr.grid.size())
		}
		if _, err := st.Finalize(); err != nil {
			t.Fatal(err)
		}
	}
}

// lagSnapshot streams half a letter under the serving-style config and
// returns the tracker and its snapshot.
func lagSnapshot(t *testing.T) (*Tracker, *StreamTracker, []byte) {
	t.Helper()
	samples, ants := synthSamples(t, 'R', 3)
	tr := New(Config{Antennas: ants, CommitLag: 8, BeamTopK: 64})
	st := tr.Stream()
	if err := st.Push(samples[:len(samples)/2]...); err != nil {
		t.Fatal(err)
	}
	snap, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st.vit == nil || len(st.vit.back) < 2 || len(st.vit.active) < 2 {
		t.Fatal("snapshot taken before the decoder holds two records of two states")
	}
	return tr, st, snap
}

// TestSnapshotSingleAllocation checks that Snapshot sizes its buffer
// exactly up front instead of growing it.
func TestSnapshotSingleAllocation(t *testing.T) {
	_, st, snap := lagSnapshot(t)
	if len(snap) != cap(snap) {
		t.Fatalf("snapshot %d bytes in a %d-byte buffer", len(snap), cap(snap))
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := st.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("Snapshot made %v allocations, want 1", n)
	}
	for _, cfg := range []Config{{GreedyDecode: true}, {}} {
		samples, ants := synthSamples(t, 'O', 4)
		cfg.Antennas = ants
		st := New(cfg).Stream()
		if err := st.Push(samples[:len(samples)/3]...); err != nil {
			t.Fatal(err)
		}
		snap, err := st.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if len(snap) != cap(snap) {
			t.Fatalf("greedy=%v: snapshot %d bytes in a %d-byte buffer", cfg.GreedyDecode, len(snap), cap(snap))
		}
	}
}

// TestSnapshotSmallAdaptiveBeam checks that a snapshot restores when
// the adaptive controller sits at its floor of 16 states, which for a
// BeamTopK below 4 is above four times the configured bound. A single
// confident step (one state within adaptMargin of the maximum) takes
// the controller there; the test applies it directly.
func TestSnapshotSmallAdaptiveBeam(t *testing.T) {
	samples, ants := synthSamples(t, 'R', 5)
	tr := New(Config{Antennas: ants, CommitLag: 8, BeamTopK: 2, BeamAdaptive: true})
	st := tr.Stream()
	half := len(samples) / 2
	if err := st.Push(samples[:half]...); err != nil {
		t.Fatal(err)
	}
	if k := st.vit.adaptK(1); k != 16 {
		t.Fatalf("confident step left the adaptive bound at %d, want its floor 16", k)
	}
	snap, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := tr.RestoreStream(snap)
	if err != nil {
		t.Fatalf("restore at beam bound 16: %v", err)
	}
	if err := rs.Push(samples[half:]...); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Finalize(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRefusesVersion1 checks that a snapshot in the dense
// backpointer format is refused, not misread.
func TestSnapshotRefusesVersion1(t *testing.T) {
	tr, _, snap := lagSnapshot(t)
	old := append([]byte(nil), snap...)
	old[4] = 1
	if _, err := tr.RestoreStream(old); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("version-1 restore: %v, want ErrBadSnapshot", err)
	}
	if _, err := SnapshotCovered(old); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("version-1 SnapshotCovered: %v, want ErrBadSnapshot", err)
	}
}

// TestSnapshotRejectsCorruptRecords corrupts the last beam record,
// which ends the snapshot (its cells, then its predecessor positions),
// and requires every violation of the record invariants to fail the
// restore with ErrBadSnapshot.
func TestSnapshotRejectsCorruptRecords(t *testing.T) {
	tr, st, snap := lagSnapshot(t)
	v := st.vit
	last := v.back[len(v.back)-1]
	m := len(last.cells)
	prevLen := len(v.back[len(v.back)-2].cells)
	cellsAt := len(snap) - 8*m
	predAt := len(snap) - 4*m
	put := func(b []byte, off int, x uint32) { binary.BigEndian.PutUint32(b[off:], x) }

	if _, err := tr.RestoreStream(snap); err != nil {
		t.Fatalf("intact snapshot: %v", err)
	}
	cases := []struct {
		name    string
		corrupt func(b []byte)
	}{
		{"cells out of order", func(b []byte) {
			put(b, cellsAt, uint32(last.cells[1]))
			put(b, cellsAt+4, uint32(last.cells[0]))
		}},
		{"cell off the grid", func(b []byte) { put(b, cellsAt+4*(m-1), uint32(tr.grid.size())) }},
		{"negative cell", func(b []byte) { put(b, cellsAt, math.MaxUint32) }},
		{"predecessor past the previous record", func(b []byte) { put(b, predAt, uint32(prevLen)) }},
		{"negative predecessor", func(b []byte) { put(b, predAt+4*(m-1), math.MaxUint32) }},
		{"current record differs from the active beam", func(b []byte) {
			// Shift one end of the record outward: still ascending and
			// on the grid, but no longer the active beam.
			if c := last.cells[m-1] + 1; int(c) < tr.grid.size() {
				put(b, cellsAt+4*(m-1), uint32(c))
			} else {
				put(b, cellsAt, uint32(last.cells[0]-1))
			}
		}},
		{"record count", func(b []byte) { put(b, cellsAt-4, uint32(m+1)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := append([]byte(nil), snap...)
			tc.corrupt(bad)
			if _, err := tr.RestoreStream(bad); !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("restore: %v, want ErrBadSnapshot", err)
			}
		})
	}
}

// TestTimeZeroRecordCellsOnly checks that time 0's beam record, whose
// predecessors no backtrack reads, holds cells only after a seed and
// after a restore, and that a snapshot holding it restores to the same
// bytes and the same decode.
func TestTimeZeroRecordCellsOnly(t *testing.T) {
	samples, ants := synthSamples(t, 'R', 3)
	tr := New(servingConfig(ants))
	st := tr.Stream()
	pushed := 0
	for ; st.Windows() < 20; pushed++ {
		if err := st.Push(samples[pushed]); err != nil {
			t.Fatal(err)
		}
	}
	if st.vit.commitT >= 0 {
		t.Fatalf("time 0 committed after %d windows", st.Windows())
	}
	if rec := st.vit.back[0]; cap(rec.pred) != 0 || len(rec.cells) <= DefaultBeamTopK {
		t.Fatalf("time 0 record: %d cells, pred capacity %d; want the prior's support and no pred",
			len(rec.cells), cap(rec.pred))
	}
	snap, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := tr.RestoreStream(snap)
	if err != nil {
		t.Fatal(err)
	}
	if p := rs.vit.back[0].pred; cap(p) != 0 {
		t.Fatalf("restored time 0 record has pred capacity %d", cap(p))
	}
	again, err := rs.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, again) {
		t.Fatal("restored snapshot differs from the original")
	}
	for _, s := range []*StreamTracker{st, rs} {
		if err := s.Push(samples[pushed:]...); err != nil {
			t.Fatal(err)
		}
		if s.vit.commitT < 0 {
			t.Fatal("letter ended before the first commit")
		}
	}
	want, err := st.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	got, err := rs.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, want, got)
}
