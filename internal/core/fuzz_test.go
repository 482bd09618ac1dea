package core

import (
	"errors"
	"testing"
)

// FuzzRestoreStream feeds arbitrary bytes to RestoreStream, seeded with
// real mid-stroke snapshots of every decoder kind. Every input must
// either fail with ErrBadSnapshot or restore to a tracker that
// snapshots and restores again, accepts the rest of a stroke, and
// finalizes — never panic inside a later step or commit.
func FuzzRestoreStream(f *testing.F) {
	samples, ants := synthSamples(f, 'R', 7)
	configs := []Config{
		{CommitLag: 8, BeamTopK: 64},
		{CommitLag: 8, BeamTopK: 64, BeamAdaptive: true},
		{CommitLag: 8, BeamTopK: 2, BeamAdaptive: true},
		{Window: 0.1},
		{GreedyDecode: true},
	}
	for _, cfg := range configs {
		cfg.Antennas = ants
		for _, cut := range []int{0, 1, len(samples) / 3, len(samples) / 2} {
			st := New(cfg).Stream()
			if err := st.Push(samples[:cut]...); err != nil {
				f.Fatal(err)
			}
			snap, err := st.Snapshot()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(snap)
		}
	}
	tr := New(Config{Antennas: ants})
	// A short tail keeps each input fast: enough to close windows, step
	// the decoder and force commits at lag 8.
	tail := samples[len(samples)/2:]
	tail = tail[:min(len(tail), 120)]

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := tr.RestoreStream(data)
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("restore failed outside ErrBadSnapshot: %v", err)
			}
			return
		}
		again, err := st.Snapshot()
		if err != nil {
			t.Fatalf("snapshot of a restored tracker: %v", err)
		}
		if _, err := tr.RestoreStream(again); err != nil {
			t.Fatalf("restore of a re-snapshot: %v", err)
		}
		// A step scans the whole annulus a window can reach, so its cost
		// grows with the square of VMax*Window (clamped at the board). A
		// restored config may legitimately reach across the board; skip
		// decoding those to keep each input fast.
		if st.cfg.VMax*st.cfg.Window > 0.05 {
			return
		}
		if err := st.Push(tail...); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Finalize(); err != nil && !errors.Is(err, ErrTooFewSamples) {
			t.Fatalf("finalize: %v", err)
		}
	})
}
