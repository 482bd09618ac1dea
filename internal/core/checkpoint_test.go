package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"runtime"
	"testing"

	"polardraw/internal/geom"
)

func bitSamePolyline(a, b geom.Polyline) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// bitSameResult is requireSameResult without tolerance: every float
// compared by bit pattern, the standard the durability tier promises.
func bitSameResult(t *testing.T, want, got *Result) {
	t.Helper()
	if !bitSamePolyline(want.Trajectory, got.Trajectory) {
		t.Fatalf("trajectories diverge: %d vs %d points", len(want.Trajectory), len(got.Trajectory))
	}
	if len(want.Windows) != len(got.Windows) {
		t.Fatalf("windows: %d vs %d", len(want.Windows), len(got.Windows))
	}
	for i := range want.Windows {
		if want.Windows[i] != got.Windows[i] {
			t.Fatalf("window[%d]: %+v vs %+v", i, want.Windows[i], got.Windows[i])
		}
	}
	if want.Correction != got.Correction ||
		want.RotationalWindows != got.RotationalWindows ||
		want.TranslationalWindows != got.TranslationalWindows ||
		want.SpuriousRejected != got.SpuriousRejected {
		t.Fatalf("diagnostics diverge:\n  want %+v\n  got  %+v", want, got)
	}
}

// TestSnapshotRestoreBitIdentical is the tentpole acceptance at the
// core layer: snapshot mid-stroke, restore on a brand-new tracker
// (nothing shared but the configuration — the shard-death topology),
// feed the remaining samples, and require every window counter, commit
// segment, telemetry field, and the Finalize result to be bit-identical
// to the uninterrupted run.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"lagged-beam", Config{Window: 0.1, CommitLag: 8, BeamTopK: 64}},
		{"adaptive", Config{Window: 0.1, CommitLag: 8, BeamTopK: 64, BeamAdaptive: true}},
		{"unbounded", Config{Window: 0.1}},
		{"greedy", Config{Window: 0.1, GreedyDecode: true}},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			samples, ants := synthSamples(t, 'R', 7)
			cfg := tc.cfg
			cfg.Antennas = ants

			for _, cut := range []int{1, len(samples) / 3, len(samples) / 2, len(samples) - 1} {
				// Uninterrupted reference.
				ref := New(cfg).Stream()
				refCommits := map[int]geom.Polyline{}
				ref.OnCommit = func(start int, seg geom.Polyline) {
					refCommits[start] = append(geom.Polyline(nil), seg...)
				}
				if err := ref.Push(samples...); err != nil {
					t.Fatal(err)
				}

				// Interrupted run: push to cut, snapshot, restore
				// elsewhere, push the rest.
				st := New(cfg).Stream()
				if err := st.Push(samples[:cut]...); err != nil {
					t.Fatal(err)
				}
				snap, err := st.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if covered, err := SnapshotCovered(snap); err != nil || covered != cut {
					t.Fatalf("SnapshotCovered = %d, %v; want %d", covered, err, cut)
				}
				rst, err := New(cfg).RestoreStream(snap)
				if err != nil {
					t.Fatal(err)
				}
				commits := map[int]geom.Polyline{}
				rst.OnCommit = func(start int, seg geom.Polyline) {
					commits[start] = append(geom.Polyline(nil), seg...)
				}
				if err := rst.Push(samples[cut:]...); err != nil {
					t.Fatal(err)
				}

				if rst.Windows() != ref.Windows() || rst.Received() != ref.Received() || rst.Dropped() != ref.Dropped() {
					t.Fatalf("cut %d: windows/received/dropped %d/%d/%d vs %d/%d/%d",
						cut, rst.Windows(), rst.Received(), rst.Dropped(),
						ref.Windows(), ref.Received(), ref.Dropped())
				}
				// Commits fired after the restore point must match the
				// reference segments at the same start indices exactly
				// (segments before the cut fired pre-snapshot, on the
				// original tracker).
				for start, seg := range commits {
					want, ok := refCommits[start]
					if !ok || !bitSamePolyline(seg, want) {
						t.Fatalf("cut %d: commit at %d diverges from uninterrupted run", cut, start)
					}
				}
				// Committed prefixes agree bit-for-bit.
				if !bitSamePolyline(ref.Committed(), rst.Committed()) {
					t.Fatalf("cut %d: committed prefixes diverge", cut)
				}
				ds, rds := ref.DecodeStats(), rst.DecodeStats()
				// Stencil-cache hits/misses legitimately differ (the
				// restored tracker starts with a cold per-grid cache);
				// every other telemetry field must round-trip.
				rds.StencilHits, rds.StencilMisses = ds.StencilHits, ds.StencilMisses
				if ds != rds {
					t.Fatalf("cut %d: decode stats diverge:\n  ref %+v\n  rst %+v", cut, ds, rds)
				}

				want, werr := ref.Finalize()
				got, gerr := rst.Finalize()
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("cut %d: finalize err %v vs %v", cut, gerr, werr)
				}
				if werr == nil {
					bitSameResult(t, want, got)
				}
			}
		})
	}
}

// TestSnapshotRejectsGarbage locks the parser's failure modes: short
// or corrupt input errors cleanly (never panics), incompatible grids
// are refused, and finalized trackers cannot snapshot.
func TestSnapshotRejectsGarbage(t *testing.T) {
	samples, ants := synthSamples(t, 'R', 3)
	// A window-only decode on a 2 cm grid: its snapshot has every
	// section a 5 mm one has, at a few percent of the size, so the
	// truncation sweep below (one restore per cut, each parsing up to
	// the cut) stays cheap.
	cfg := Config{Antennas: ants, Window: 0.1, CommitLag: 8, CellSize: 0.02}
	tr := New(cfg)
	st := tr.Stream()
	if err := st.Push(samples[:len(samples)/2]...); err != nil {
		t.Fatal(err)
	}
	snap, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The sweep's 13-byte stride cuts inside every section at least
	// 13 bytes long: the fixed header, configuration and direction
	// evidence always are; the variable ones must be too.
	const stride = 13
	v := st.vit
	if v == nil || len(st.windows) == 0 || len(v.back) < 2 {
		t.Fatalf("snapshot lacks windows or beam records (%d windows)", len(st.windows))
	}
	withPreds := 0
	for _, rec := range v.back[1:] {
		withPreds += 4 + 8*len(rec.cells)
	}
	for name, n := range map[string]int{
		"closed windows":      4 + ckptWindowSize*len(st.windows),
		"active cells+scores": 4 + 12*len(v.active),
		"cells-only record":   4 + 4*len(v.back[0].cells),
		"records with preds":  withPreds,
	} {
		if n < stride {
			t.Fatalf("%s section is %d bytes, shorter than the %d-byte stride", name, n, stride)
		}
	}

	if _, err := tr.RestoreStream(nil); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("nil snapshot: %v, want ErrBadSnapshot", err)
	}
	bad := append([]byte(nil), snap...)
	bad[0] ^= 0xff
	if _, err := tr.RestoreStream(bad); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("bad magic: %v, want ErrBadSnapshot", err)
	}
	// Truncation anywhere in the body must fail with ErrBadSnapshot,
	// never panic.
	for cut := 0; cut < len(snap); cut += stride {
		if _, err := tr.RestoreStream(snap[:cut]); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("truncation at %d: %v, want ErrBadSnapshot", cut, err)
		}
	}
	// Grid mismatch: half the cell size, four times the cells.
	small := cfg
	small.CellSize = cfg.CellSize / 2
	if _, err := New(small).RestoreStream(snap); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("snapshot on a different grid: %v, want ErrBadSnapshot", err)
	}

	if _, err := st.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Snapshot(); err != ErrFinalized {
		t.Fatalf("snapshot after finalize: %v", err)
	}
}

// TestSnapshotGoldenBytes pins checkpoint format v2 byte for byte: the
// SHA-256 of a mid-stroke snapshot at the serving config and of a
// greedy-decode one. Journals and migrations carry these bytes between
// builds, so they may only change with ckptVersion. The hashes were
// taken on amd64; architectures that fuse multiply-adds may round the
// decode differently. The serving hash changed once without a version
// bump: the bound-pruned stroke-start step lowered the topkPruned
// counter, and those 8 bytes were the only ones that differed.
func TestSnapshotGoldenBytes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes were taken on amd64, not %s", runtime.GOARCH)
	}
	samples, ants := synthSamples(t, 'R', 7)
	greedy := Config{Antennas: ants, GreedyDecode: true}
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"serving", servingConfig(ants), "001bc660fe0f7dce523b7b692329d2deb660522f9c841773d120de682f1b07a0"},
		{"greedy", greedy, "cdc03f82fcbdd7d3301df7c9cc3d7d88b26cee3fd516c2ff365b7e0a2ae4b960"},
	} {
		st := New(tc.cfg).Stream()
		if err := st.Push(samples[:len(samples)/2]...); err != nil {
			t.Fatal(err)
		}
		snap, err := st.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(snap)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s snapshot (%d bytes) sha256 %s, want %s", tc.name, len(snap), got, tc.want)
		}
	}
}
