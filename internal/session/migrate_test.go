package session

import (
	"context"
	"errors"
	"strings"
	"testing"

	"polardraw/internal/core"
	"polardraw/internal/reader"
	"polardraw/internal/telemetry"
)

// faultyStub is a stubBackend whose Export, Restore and Open can fail
// on their own, leaving every other call working.
type faultyStub struct {
	stubBackend
	exportErr, restoreErr, openErr error
}

func (f *faultyStub) Export(ctx context.Context, epc string) ([]byte, error) {
	if f.exportErr != nil {
		return nil, f.exportErr
	}
	return f.stubBackend.Export(ctx, epc)
}

func (f *faultyStub) Restore(ctx context.Context, epc string, state []byte) error {
	if f.restoreErr != nil {
		return f.restoreErr
	}
	return f.stubBackend.Restore(ctx, epc, state)
}

func (f *faultyStub) Open(ctx context.Context, epc string, opts OpenOptions) error {
	if f.openErr != nil {
		return f.openErr
	}
	return f.stubBackend.Open(ctx, epc, opts)
}

// markDown holds the named backend's call streak down without firing
// the down hook, so no failover races the entry point under test.
func markDown(r *Router, name string) {
	for _, rb := range r.backends {
		if rb.name == name {
			rb.stMu.Lock()
			rb.call.down = true
			rb.stMu.Unlock()
		}
	}
}

// TestMoveEngine drives every entry point of the migration engine
// (Handoff, drain, failover and the dispatch path's ensureRoutable)
// against stub backends and checks, for each, the strategy the target
// saw, the samples replayed to it, the resulting pin, the migrations
// counter and the returned error.
func TestMoveEngine(t *testing.T) {
	const (
		viaExport     = "export/restore"
		viaCheckpoint = "checkpoint restore"
		viaOpen       = "open"
		viaNothing    = "none" // no restore and no open on the target
	)
	// Journal contents seeded before the entry point runs. Every
	// non-empty one dispatches its samples through the router, so the
	// source backend holds the live session too.
	const (
		empty     = "empty"
		tail      = "tail"      // 3 samples, no checkpoint, no options
		ckptTail  = "ckpt+tail" // 4 samples, a checkpoint covering 2
		opensTail = "opts+tail" // recorded options, 2 samples
	)
	ckpt := []byte("ckpt-covering-2")
	injected := errors.New("injected")
	cases := []struct {
		name    string
		entry   string // handoff, drain, failover, ensure
		journal string
		// faults
		exportErr, restoreErr, openErr bool
		// expectations
		strategy   string
		got        int // samples the target received (replay, plus ensure's own sample)
		pin        string
		migrations int64
		wantErr    bool
		restoredOn bool // the session was restored back on the source
	}{
		{name: "handoff exports", entry: "handoff", journal: tail,
			strategy: viaExport, pin: "b:1", migrations: 1},
		{name: "handoff falls back to checkpoint+replay", entry: "handoff", journal: ckptTail, exportErr: true,
			strategy: viaCheckpoint, got: 2, pin: "b:1", migrations: 1},
		{name: "handoff falls back to open+replay", entry: "handoff", journal: opensTail, exportErr: true,
			strategy: viaOpen, got: 2, pin: "b:1", migrations: 1},
		{name: "handoff export fails, nothing journaled", entry: "handoff", journal: empty, exportErr: true,
			strategy: viaNothing, pin: "a:1", wantErr: true},
		{name: "handoff restore fails, restored back", entry: "handoff", journal: tail, restoreErr: true,
			strategy: viaNothing, pin: "a:1", wantErr: true, restoredOn: true},
		{name: "drain exports", entry: "drain", journal: tail,
			strategy: viaExport, pin: "b:1", migrations: 1},
		{name: "drain falls back to checkpoint+replay", entry: "drain", journal: ckptTail, exportErr: true,
			strategy: viaCheckpoint, got: 2, pin: "b:1", migrations: 1},
		{name: "drain rebuild fails", entry: "drain", journal: opensTail, exportErr: true, openErr: true,
			strategy: viaNothing, pin: "a:1", wantErr: true},
		{name: "failover checkpoint+replay", entry: "failover", journal: ckptTail,
			strategy: viaCheckpoint, got: 2, pin: "b:1", migrations: 1},
		{name: "failover open+replay", entry: "failover", journal: opensTail,
			strategy: viaOpen, got: 2, pin: "b:1", migrations: 1},
		{name: "failover replay only", entry: "failover", journal: tail,
			strategy: viaNothing, got: 3, pin: "b:1", migrations: 1},
		{name: "ensureRoutable empty journal entry pins", entry: "ensure", journal: empty,
			strategy: viaNothing, got: 1, pin: "b:1", migrations: 1},
		{name: "ensureRoutable open+replay", entry: "ensure", journal: opensTail,
			strategy: viaOpen, got: 3, pin: "b:1", migrations: 1},
		{name: "ensureRoutable checkpoint+replay", entry: "ensure", journal: ckptTail,
			strategy: viaCheckpoint, got: 3, pin: "b:1", migrations: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			a, b := &faultyStub{}, &faultyStub{}
			r := NewRouter([]NamedBackend{{Name: "a:1", Backend: a}, {Name: "b:1", Backend: b}})
			j := NewMemJournal(0)
			r.SetJournal(j)
			reg := telemetry.NewRegistry()
			r.SetTelemetry(reg)
			epc := epcOwnedBy(t, r, "a:1")

			dispatch := func(n int) {
				for i := 0; i < n; i++ {
					if err := r.Dispatch(ctx, reader.Sample{EPC: epc, T: float64(i)}); err != nil {
						t.Fatal(err)
					}
				}
			}
			switch tc.journal {
			case tail:
				dispatch(3)
			case ckptTail:
				dispatch(4)
				if err := j.SaveCheckpoint(epc, 2, ckpt); err != nil {
					t.Fatal(err)
				}
			case opensTail:
				if err := r.Open(ctx, epc, OpenOptions{}); err != nil {
					t.Fatal(err)
				}
				dispatch(2)
			}
			if tc.exportErr {
				a.exportErr = injected
			}
			if tc.restoreErr {
				b.restoreErr = injected
			}
			if tc.openErr {
				b.openErr = injected
			}

			var err error
			switch tc.entry {
			case "handoff":
				err = r.Handoff(ctx, epc, "b:1")
			case "drain":
				err = r.ApplyMembership(ctx, Membership{Epoch: 1, Members: []Member{
					{Name: "a:1", State: StateDraining}, {Name: "b:1"},
				}})
			case "failover":
				markDown(r, "a:1")
				r.failover(r.backends[0])
			case "ensure":
				markDown(r, "a:1")
				err = r.Dispatch(ctx, reader.Sample{EPC: epc, T: 99})
			}

			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v", err, tc.wantErr)
			}
			if err != nil && !strings.Contains(err.Error(), epc) {
				t.Fatalf("error %q does not name the EPC %s", err, epc)
			}
			b.mu.Lock()
			restored := b.restored[epc]
			_, opened := b.opened[epc]
			b.mu.Unlock()
			strategy := viaNothing
			switch {
			case string(restored) == "state:"+epc:
				strategy = viaExport
			case string(restored) == string(ckpt):
				strategy = viaCheckpoint
			case restored != nil:
				t.Fatalf("target restored unexpected state %q", restored)
			case opened:
				strategy = viaOpen
			}
			if strategy != tc.strategy {
				t.Fatalf("strategy = %s, want %s", strategy, tc.strategy)
			}
			if got := len(b.samples()); got != tc.got {
				t.Fatalf("target received %d samples, want %d", got, tc.got)
			}
			if got := r.BackendFor(epc); got != tc.pin {
				t.Fatalf("EPC routes to %s, want %s", got, tc.pin)
			}
			if got := reg.Counter("polardraw_router_migrations_total").Value(); got != tc.migrations {
				t.Fatalf("migrations = %d, want %d", got, tc.migrations)
			}
			a.mu.Lock()
			exported, back := a.exported[epc] != nil, a.restored[epc] != nil
			a.mu.Unlock()
			if tc.entry == "failover" || tc.entry == "ensure" {
				if exported {
					t.Fatal("a move without a source exported from the down owner")
				}
			}
			if back != tc.restoredOn {
				t.Fatalf("restored back on the source = %v, want %v", back, tc.restoredOn)
			}
		})
	}
}

// TestRouterMigrationsCounted: polardraw_router_migrations_total counts
// every move — one Handoff, one drain and one failover make 3 — and
// polardraw_router_failovers_total counts the one failover run.
func TestRouterMigrationsCounted(t *testing.T) {
	ctx := context.Background()
	nbs, stubs := namedStubs("a:1", "b:1", "c:1")
	r := NewRouter(nbs)
	r.SetJournal(NewMemJournal(0))
	reg := telemetry.NewRegistry()
	r.SetTelemetry(reg)
	migrations := reg.Counter("polardraw_router_migrations_total")
	// finish ends a stroke wherever it lives, so later steps move
	// nothing but their own EPC.
	finish := func(epc string) {
		for _, sb := range stubs {
			sb.finalize = map[string]*core.Result{epc: {}}
		}
		if _, err := r.Finalize(ctx, epc); err != nil {
			t.Fatal(err)
		}
	}

	handed := epcOwnedBy(t, r, "a:1")
	if err := r.Dispatch(ctx, reader.Sample{EPC: handed, T: 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.Handoff(ctx, handed, "b:1"); err != nil {
		t.Fatal(err)
	}
	if got := migrations.Value(); got != 1 {
		t.Fatalf("after a handoff migrations = %d, want 1", got)
	}
	finish(handed)

	drained := epcOwnedBy(t, r, "c:1")
	if err := r.Dispatch(ctx, reader.Sample{EPC: drained, T: 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.ApplyMembership(ctx, Membership{Epoch: 1, Members: []Member{
		{Name: "a:1"}, {Name: "b:1"}, {Name: "c:1", State: StateDraining},
	}}); err != nil {
		t.Fatal(err)
	}
	if got := r.BackendFor(drained); got == "c:1" {
		t.Fatal("drain left the EPC on the draining backend")
	}
	if got := migrations.Value(); got != 2 {
		t.Fatalf("after a drain migrations = %d, want 2", got)
	}
	finish(drained)

	failed := epcOwnedBy(t, r, "a:1")
	if err := r.Dispatch(ctx, reader.Sample{EPC: failed, T: 1}); err != nil {
		t.Fatal(err)
	}
	stubs["a:1"].setFail(errors.New("shard down"))
	tripDown(ctx, t, r, failed, unhealthyAfter)
	waitFor(t, "failover override", func() bool { return r.BackendFor(failed) == "b:1" })
	if got := migrations.Value(); got != 3 {
		t.Fatalf("after a failover migrations = %d, want 3", got)
	}
	if got := reg.Counter("polardraw_router_failovers_total").Value(); got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}
}
