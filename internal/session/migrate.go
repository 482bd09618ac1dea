package session

import (
	"context"
	"errors"
	"fmt"

	"polardraw/internal/core"
)

// moveLocked is the router's one migration engine: Handoff, drains,
// failover and the dispatch path's rerouting all move a session through
// it, holding handoffMu for writing so no sample slips between the move
// and the pin. Export first: with a source, export from `from`, save
// the snapshot as the EPC's journal checkpoint and restore it on `to`
// (it covers every sample dispatched so far, so nothing replays); if
// that restore fails, restore back on `from` and return both errors.
// Otherwise — no source (its owner is down; a nil from requires a
// journal), or Export failed while the journal holds the stroke —
// rebuild from the journal: restore the checkpoint or open with the
// recorded options, then replay the tail. With no source and nothing
// journaled that is the bare pin of a brand-new stroke. A success marks
// `to` healthy, pins the route and counts one migration; a failed call
// on `to` counts against its health unless ctx ended.
func (r *Router) moveLocked(ctx context.Context, epc string, from, to *routerBackend) error {
	fail := func(err error) error {
		if ctx.Err() == nil {
			to.fail(err)
		}
		return fmt.Errorf("router: move %s to %s: %w", epc, to.name, err)
	}
	moved := func() error {
		to.ok()
		r.setOverrideLocked(epc, to)
		if r.tel != nil {
			r.tel.migrations.Inc()
		}
		return nil
	}
	j := r.journal
	var exportErr error
	if from != nil {
		state, err := from.b.Export(ctx, epc)
		if err == nil {
			if covered, cerr := core.SnapshotCovered(state); cerr == nil && j != nil {
				_ = j.SaveCheckpoint(epc, covered, state)
			}
			if err := to.b.Restore(ctx, epc, state); err != nil {
				err = fail(err)
				if rerr := from.b.Restore(context.WithoutCancel(ctx), epc, state); rerr != nil {
					err = errors.Join(err, fmt.Errorf("router: move %s: restore-back on %s: %w", epc, from.name, rerr))
				}
				return err
			}
			return moved()
		}
		exportErr = fmt.Errorf("router: move %s: export from %s: %w", epc, from.name, err)
		if j == nil {
			return exportErr
		}
	}
	state, covered := j.Checkpoint(epc)
	opts, hasOpts := j.Options(epc)
	replay := j.Replay(epc, covered)
	if exportErr != nil && state == nil && !hasOpts && len(replay) == 0 {
		return exportErr
	}
	var err error
	switch {
	case state != nil:
		err = to.b.Restore(ctx, epc, state)
	case hasOpts:
		if err = to.b.Open(ctx, epc, opts); errors.Is(err, ErrSessionLimit) {
			err = nil
		}
	}
	if err == nil && len(replay) > 0 {
		to.dispatched.Add(uint64(len(replay)))
		if err = to.b.DispatchBatch(ctx, replay); err != nil {
			to.dropped.Add(uint64(len(replay)))
		}
	}
	if err != nil {
		return fail(err)
	}
	return moved()
}

// ensureRoutable is the dispatch path's rerouting: with a journal
// attached, an EPC with no override whose rendezvous winner is down
// moves, without a source, to the healthy runner-up before the sample
// dispatches — a journal rebuild, not a bare re-pin, since the stroke
// may be mid-way with history only the journal holds. Without a
// journal routing never moves (health is advisory). A race with the
// failover goroutine is benign: whichever side pins first wins, the
// other sees the override and skips.
func (r *Router) ensureRoutable(epc string) {
	if r.journal == nil {
		return
	}
	r.handoffMu.RLock()
	_, pinned := r.overrides[epc]
	var rb *routerBackend
	if !pinned {
		rb = r.backendFor(epc)
	}
	r.handoffMu.RUnlock()
	if pinned || rb.healthy() {
		return
	}
	r.handoffMu.Lock()
	defer r.handoffMu.Unlock()
	if _, pinned := r.overrides[epc]; pinned || r.closed {
		return
	}
	if alt := r.healthyAmong(epc, rb); alt != nil {
		ctx, cancel := context.WithTimeout(context.Background(), failoverTimeout)
		_ = r.moveLocked(ctx, epc, nil, alt)
		cancel()
	}
}

// failover moves every journaled EPC the dead backend serves to a
// healthy one, without a source, one EPC per write-lock hold. An EPC
// whose move fails stays routed to the dead backend with its journal
// intact; a later down-transition (or recovery) retries.
func (r *Router) failover(dead *routerBackend) {
	j := r.journal
	if j == nil {
		return
	}
	// The dead backend's transport must not resend its buffered samples
	// into the old shard after the EPCs move: the journal has them all.
	if a, ok := dead.b.(abandoner); ok {
		a.AbandonPending()
	}
	if r.tel != nil {
		r.tel.failovers.Inc()
	}
	for _, epc := range j.EPCs() {
		ctx, cancel := context.WithTimeout(context.Background(), failoverTimeout)
		r.handoffMu.Lock()
		if !r.closed && r.resolveLocked(epc) == dead {
			if target := r.healthyAmong(epc, dead); target != nil {
				_ = r.moveLocked(ctx, epc, nil, target)
			}
		}
		r.handoffMu.Unlock()
		cancel()
	}
}

// Handoff gracefully moves one EPC's live session from its owner to
// the named backend and pins the route (see moveLocked): export,
// journal checkpoint, restore, and a restore back on the owner if the
// target refuses. With a journal attached, an owner that cannot export
// is bypassed by rebuilding the stroke from the journal.
func (r *Router) Handoff(ctx context.Context, epc, backend string) error {
	r.handoffMu.Lock()
	defer r.handoffMu.Unlock()
	if r.closed {
		return ErrClosed
	}
	var to *routerBackend
	for _, rb := range r.backends {
		if rb.name == backend {
			to = rb
			break
		}
	}
	if to == nil {
		return fmt.Errorf("router: unknown backend %q", backend)
	}
	from := r.resolveLocked(epc)
	if from == to {
		return nil
	}
	return r.moveLocked(ctx, epc, from, to)
}

// servedLocked lists the EPCs that resolve to rb among its live
// sessions (Stats), the journaled strokes and the overrides: an
// unreachable backend can't enumerate its sessions, but the journal and
// the overrides remember the strokes routed to it. Caller holds
// handoffMu.
func (r *Router) servedLocked(ctx context.Context, rb *routerBackend) []string {
	var cands []string
	if j := r.journal; j != nil {
		cands = j.EPCs()
	}
	for epc := range r.overrides {
		cands = append(cands, epc)
	}
	if st, err := rb.b.Stats(ctx); err == nil {
		for _, s := range st {
			cands = append(cands, s.EPC)
		}
	}
	var out []string
	seen := make(map[string]bool, len(cands))
	for _, epc := range cands {
		if !seen[epc] && r.resolveLocked(epc) == rb {
			out = append(out, epc)
		}
		seen[epc] = true
	}
	return out
}

// drainBackend moves every session rb serves to healthy targets. The
// enumeration, the per-EPC pins, and the draining flip happen under
// one write-lock critical section: dispatch traffic holds the read
// side, so every sample dispatched before the flip is visible to the
// backend's Stats, and every EPC found is pinned to rb BEFORE the flip
// re-routes the rendezvous — an un-pinned EPC would silently re-route
// mid-stroke with its decode state left behind. Each pinned EPC keeps
// flowing to rb until its own drainEPC move completes.
func (r *Router) drainBackend(ctx context.Context, rb *routerBackend) error {
	r.handoffMu.Lock()
	epcs := r.servedLocked(ctx, rb)
	for _, epc := range epcs {
		if r.overrides[epc] == nil {
			r.setOverrideLocked(epc, rb)
		}
	}
	rb.state.Store(int32(StateDraining))
	r.handoffMu.Unlock()

	var errs []error
	for _, epc := range epcs {
		if err := r.drainEPC(ctx, epc, rb); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// drainEPC moves one session off a draining backend to the healthiest
// target (see moveLocked). A session that ended between enumeration
// and now, with nothing journaled, just drops its pin.
func (r *Router) drainEPC(ctx context.Context, epc string, from *routerBackend) error {
	r.handoffMu.Lock()
	defer r.handoffMu.Unlock()
	if r.resolveLocked(epc) != from {
		return nil // finalized or already moved meanwhile
	}
	to := r.healthyAmong(epc, from)
	if to == nil {
		return fmt.Errorf("router: drain %s: %s: %w: no healthy target", from.name, epc, ErrBackendUnavailable)
	}
	err := r.moveLocked(ctx, epc, from, to)
	if errors.Is(err, ErrUnknownEPC) {
		delete(r.overrides, epc)
		return nil
	}
	return err
}
