package session

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"polardraw/internal/reader"
)

// jSample builds a distinguishable journal sample.
func jSample(epc string, i int) reader.Sample {
	return reader.Sample{
		EPC:     epc,
		T:       float64(i) * 0.01,
		Antenna: i % 2,
		RSS:     -60 - float64(i)*0.5,
		Phase:   float64(i) * 0.1,
	}
}

// journalFactory builds a fresh journal for the shared conformance
// tests.
type journalFactory func(t *testing.T, retain int) Journal

func memFactory(t *testing.T, retain int) Journal { return NewMemJournal(retain) }

func fileFactory(t *testing.T, retain int) Journal {
	j, err := NewFileJournal(filepath.Join(t.TempDir(), "wal.log"), retain)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestJournalConformance(t *testing.T) {
	for name, mk := range map[string]journalFactory{"mem": memFactory, "file": fileFactory} {
		t.Run(name, func(t *testing.T) { testJournalConformance(t, mk) })
	}
}

// testJournalConformance covers the append/replay/checkpoint/release
// contract every Journal must honour.
func testJournalConformance(t *testing.T, mk journalFactory) {
	j := mk(t, 0)
	defer j.Close()

	// Indices are 0-based and contiguous per EPC, independent across
	// EPCs.
	var want []reader.Sample
	for i := 0; i < 10; i++ {
		smp := jSample("pen-a", i)
		want = append(want, smp)
		idx, err := j.Append(smp)
		if err != nil || idx != i {
			t.Fatalf("append %d: idx=%d err=%v", i, idx, err)
		}
	}
	if idx, _ := j.Append(jSample("pen-b", 0)); idx != 0 {
		t.Fatalf("second EPC's first index = %d, want 0", idx)
	}

	// Replay returns the dispatch order, from any offset.
	if got := j.Replay("pen-a", 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("full replay mismatch: %d samples", len(got))
	}
	if got := j.Replay("pen-a", 7); !reflect.DeepEqual(got, want[7:]) {
		t.Fatalf("offset replay mismatch: %+v", got)
	}
	if got := j.Replay("pen-a", 10); got != nil {
		t.Fatalf("past-end replay = %d samples, want none", len(got))
	}
	if got := j.Replay("nobody", 0); got != nil {
		t.Fatalf("unknown EPC replay = %d samples", len(got))
	}

	// Options round-trip for faithful re-opens.
	k := 48
	if err := j.RecordOpen("pen-a", OpenOptions{BeamTopK: &k}); err != nil {
		t.Fatal(err)
	}
	if o, ok := j.Options("pen-a"); !ok || o.BeamTopK == nil || *o.BeamTopK != 48 {
		t.Fatalf("options round-trip: %+v ok=%v", o, ok)
	}
	if _, ok := j.Options("pen-b"); ok {
		t.Fatal("pen-b has options it never recorded")
	}

	// A checkpoint truncates what it covers; replay resumes at covered.
	state := []byte("snapshot-at-6")
	if err := j.SaveCheckpoint("pen-a", 6, state); err != nil {
		t.Fatal(err)
	}
	if st, cov := j.Checkpoint("pen-a"); cov != 6 || !reflect.DeepEqual(st, state) {
		t.Fatalf("checkpoint = %q covered=%d", st, cov)
	}
	if got := j.Replay("pen-a", 6); !reflect.DeepEqual(got, want[6:]) {
		t.Fatalf("post-checkpoint replay mismatch: %+v", got)
	}
	// Asking below the covered watermark yields only what is retained.
	if got := j.Replay("pen-a", 0); !reflect.DeepEqual(got, want[6:]) {
		t.Fatalf("replay below checkpoint returned released records: %d samples", len(got))
	}
	// A stale checkpoint (out-of-order delivery) must not regress.
	if err := j.SaveCheckpoint("pen-a", 3, []byte("stale")); err != nil {
		t.Fatal(err)
	}
	if st, cov := j.Checkpoint("pen-a"); cov != 6 || !reflect.DeepEqual(st, state) {
		t.Fatalf("stale checkpoint regressed state: %q covered=%d", st, cov)
	}

	// EPCs lists live strokes; Release forgets one.
	if got := j.EPCs(); !reflect.DeepEqual(got, []string{"pen-a", "pen-b"}) {
		t.Fatalf("EPCs = %v", got)
	}
	j.Release("pen-a")
	if got := j.EPCs(); !reflect.DeepEqual(got, []string{"pen-b"}) {
		t.Fatalf("EPCs after release = %v", got)
	}
	if st, cov := j.Checkpoint("pen-a"); st != nil || cov != 0 {
		t.Fatal("released stroke still has a checkpoint")
	}
	if j.Lost() != 0 {
		t.Fatalf("lost = %d on a clean run", j.Lost())
	}
}

func TestJournalRetention(t *testing.T) {
	for name, mk := range map[string]journalFactory{"mem": memFactory, "file": fileFactory} {
		t.Run(name, func(t *testing.T) { testJournalRetention(t, mk) })
	}
}

// testJournalRetention: beyond the cap the oldest record ages out, and
// counts as lost only when no checkpoint covers it.
func testJournalRetention(t *testing.T, mk journalFactory) {
	j := mk(t, 4)
	defer j.Close()

	for i := 0; i < 6; i++ {
		if _, err := j.Append(jSample("pen-a", i)); err != nil {
			t.Fatal(err)
		}
	}
	// 6 appended, 4 retained: indices 0 and 1 aged out uncovered.
	if j.Lost() != 2 {
		t.Fatalf("lost = %d, want 2", j.Lost())
	}
	want := []reader.Sample{jSample("pen-a", 2), jSample("pen-a", 3), jSample("pen-a", 4), jSample("pen-a", 5)}
	if got := j.Replay("pen-a", 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("retained replay = %d samples", len(got))
	}

	// With a checkpoint ahead of the eviction point, ageout is free.
	if err := j.SaveCheckpoint("pen-a", 6, []byte("s")); err != nil {
		t.Fatal(err)
	}
	for i := 6; i < 12; i++ {
		if _, err := j.Append(jSample("pen-a", i)); err != nil {
			t.Fatal(err)
		}
	}
	if j.Lost() != 4 {
		// 12 appended, checkpoint covers 6, retain 4: indices 6 and 7
		// aged out past the checkpoint → 2 more lost.
		t.Fatalf("lost = %d, want 4", j.Lost())
	}
}

// TestFileJournalReopen is the durability property: a process restart
// (new FileJournal on the same path) resumes with identical retained
// samples, options, checkpoints, and indices.
func TestFileJournalReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	j1, err := NewFileJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := 32
	if err := j1.RecordOpen("pen-a", OpenOptions{BeamTopK: &k}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := j1.Append(jSample("pen-a", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j1.SaveCheckpoint("pen-a", 12, []byte("ck-12")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := j1.Append(jSample("pen-b", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := NewFileJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.EPCs(); !reflect.DeepEqual(got, []string{"pen-a", "pen-b"}) {
		t.Fatalf("EPCs after reopen = %v", got)
	}
	if st, cov := j2.Checkpoint("pen-a"); cov != 12 || string(st) != "ck-12" {
		t.Fatalf("checkpoint after reopen = %q covered=%d", st, cov)
	}
	var wantTail []reader.Sample
	for i := 12; i < 20; i++ {
		wantTail = append(wantTail, jSample("pen-a", i))
	}
	if got := j2.Replay("pen-a", 12); !reflect.DeepEqual(got, wantTail) {
		t.Fatalf("replay after reopen = %d samples, want %d", len(got), len(wantTail))
	}
	if o, ok := j2.Options("pen-a"); !ok || o.BeamTopK == nil || *o.BeamTopK != 32 {
		t.Fatalf("options after reopen: %+v ok=%v", o, ok)
	}
	// Appends continue at the pre-restart index.
	if idx, err := j2.Append(jSample("pen-a", 20)); err != nil || idx != 20 {
		t.Fatalf("append after reopen: idx=%d err=%v, want 20", idx, err)
	}
}

// TestFileJournalTornTail: a crash mid-append leaves a short final
// record, which replay must skip without failing — everything before
// it survives.
func TestFileJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	j1, err := NewFileJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := j1.Append(jSample("pen-a", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the torn write: append a record header claiming more
	// bytes than follow.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x01, 0x00, fjRecSample, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := NewFileJournal(path, 0)
	if err != nil {
		t.Fatalf("torn tail rejected the whole journal: %v", err)
	}
	defer j2.Close()
	if got := j2.Replay("pen-a", 0); len(got) != 5 {
		t.Fatalf("replay after torn tail = %d samples, want 5", len(got))
	}

	// The release of the last stroke truncates the file (torn tail
	// included), so the next lifetime starts clean.
	j2.Release("pen-a")
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("file after full release: size=%d err=%v, want empty", fi.Size(), err)
	}
}

// TestFileJournalGoldenBytes pins the log format byte for byte: one
// record of each type, with every OpenOptions presence bit set
// (explicit zeroes included). Journal files written by earlier builds
// must keep loading, so these bytes may only change with a deliberate
// format version.
func TestFileJournalGoldenBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	j, err := NewFileJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	zero, lag, adaptive, window, spurious := 0, 64, false, 0.1, 1.5
	opts := OpenOptions{BeamTopK: &zero, CommitLag: &lag, BeamAdaptive: &adaptive,
		Window: &window, SpuriousPhase: &spurious}
	if err := j.RecordOpen("pen-a", opts); err != nil {
		t.Fatal(err)
	}
	smp := reader.Sample{EPC: "pen-a", T: 0.25, Antenna: 1, RSS: -61.5, Phase: 2.75}
	if _, err := j.Append(smp); err != nil {
		t.Fatal(err)
	}
	if err := j.SaveCheckpoint("pen-a", 1, []byte{0xca, 0xfe}); err != nil {
		t.Fatal(err)
	}
	// pen-a stays live, so releasing pen-b appends a record instead of
	// truncating the file.
	j.Release("pen-b")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Each record is u32 length | type | payload.
	want, _ := hex.DecodeString("" +
		// open: EPC, mask 0x1f, BeamTopK 0, CommitLag 64, BeamAdaptive
		// false, Window 0.1, SpuriousPhase 1.5
		"0000002c" + "02" + "00000005" + "70656e2d61" + "1f" + "0000000000000000" +
		"0000000000000040" + "00" + "3fb999999999999a" + "3ff8000000000000" +
		// sample: EPC, T, antenna, RSS, Phase
		"00000023" + "01" + "00000005" + "70656e2d61" + "3fd0000000000000" + "01" +
		"c04ec00000000000" + "4006000000000000" +
		// checkpoint: EPC, covered, state
		"00000018" + "03" + "00000005" + "70656e2d61" + "0000000000000001" + "00000002" + "cafe" +
		// release: EPC
		"0000000a" + "04" + "00000005" + "70656e2d62")
	if !bytes.Equal(got, want) {
		t.Fatalf("journal file bytes changed:\n got %x\nwant %x", got, want)
	}
}

// TestFileJournalAntennaOutOfByteRange: an antenna index the sample
// layout's byte cannot hold (LLRP AntennaID 257 is index 256) must
// replay as an index the two-antenna tracker skips, as the live
// tracker skipped the original, never wrap onto antenna 0 or 1.
func TestFileJournalAntennaOutOfByteRange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	j1, err := NewFileJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, ant := range []int{256, 257, -2} {
		smp := jSample("pen-a", i)
		smp.Antenna = ant
		if _, err := j1.Append(smp); err != nil {
			t.Fatal(err)
		}
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := NewFileJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got := j2.Replay("pen-a", 0)
	if len(got) != 3 {
		t.Fatalf("replayed %d samples, want 3", len(got))
	}
	for i, smp := range got {
		if smp.Antenna == 0 || smp.Antenna == 1 {
			t.Fatalf("sample %d replayed on antenna %d, which the tracker decodes", i, smp.Antenna)
		}
	}
}
