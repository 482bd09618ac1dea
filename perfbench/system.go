package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"polardraw"
	"polardraw/internal/rf"
)

// eventBuffer sizes the client's event subscription and each shard
// server's per-connection event queue: a few seconds of events at the
// offered rate, so no event is shed while the scheduler runs something
// else. A shed event would leave its latency out of the percentiles,
// so the gate fails a run that sheds any.
const eventBuffer = 4096

// system is one running serving tier: a client over in-process shards,
// or over two shard servers on loopback listeners in this process.
type system struct {
	c       *polardraw.Client
	servers []*polardraw.ShardServer
	serving sync.WaitGroup
	journal *timedJournal // traced runs only
	wire    *wireCounter  // traced cluster runs only

	closeJournal func() error // the router never closes its journal
}

// commonOptions are the options client and servers share: the rig,
// the serving decode defaults (left unset), and room for every pen.
func commonOptions(ants [2]rf.Antenna) []polardraw.Option {
	return []polardraw.Option{
		polardraw.WithAntennas(ants),
		polardraw.WithMaxSessions(polardraw.DefaultServerMaxSessions),
	}
}

// buildSystem starts the workload's serving tier. With a tracer the
// WAL is wrapped in a timing decorator and the server listeners in a
// byte counter.
func buildSystem(ctx context.Context, sp spec, ants [2]rf.Antenna, tr *tracer, strokeOf func(string) int64) (*system, error) {
	opts := commonOptions(ants)
	if !sp.cluster {
		c, err := polardraw.Open(ctx, append(opts, polardraw.WithShards(2), polardraw.WithEventBuffer(eventBuffer))...)
		if err != nil {
			return nil, err
		}
		return &system{c: c}, nil
	}
	s := &system{}
	if tr != nil {
		s.wire = &wireCounter{}
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close(ctx)
			return nil, err
		}
		srv := polardraw.NewShardServer(append(opts, polardraw.WithCheckpointEvery(checkpointN), polardraw.WithEventBuffer(eventBuffer))...)
		s.servers = append(s.servers, srv)
		addrs = append(addrs, ln.Addr().String())
		var l net.Listener = ln
		if s.wire != nil {
			l = countingListener{Listener: ln, c: s.wire}
		}
		s.serving.Add(1)
		go func() {
			defer s.serving.Done()
			if err := srv.Serve(l); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: shard server:", err)
			}
		}()
	}
	// The WAL is in memory: a file journal fsyncs every checkpoint, and
	// fsync time on a shared disk swung commit_p99_ms by a quarter
	// between runs of the same code.
	var j polardraw.Journal = polardraw.NewMemJournal(0)
	s.closeJournal = j.Close
	if tr != nil {
		s.journal = newTimedJournal(j, tr, strokeOf)
		j = s.journal
	}
	c, err := polardraw.Open(ctx, append(opts,
		polardraw.WithShardServers(addrs...),
		polardraw.WithEventBuffer(eventBuffer),
		polardraw.WithJournal(j),
		polardraw.WithCheckpointEvery(checkpointN))...)
	if err != nil {
		s.close(ctx)
		return nil, err
	}
	s.c = c
	return s, nil
}

// serverDrops counts the events the shard servers shed at full
// per-connection queues. In-process shards do not expose theirs; the
// classifier's commit-gap count covers them.
func (s *system) serverDrops() uint64 {
	var n uint64
	for _, srv := range s.servers {
		n += srv.EventsDropped()
	}
	return n
}

// close tears the tier down: the client, then the servers, then the
// WAL. It reports sessions still open at close, which a finished run
// must not have.
func (s *system) close(ctx context.Context) error {
	var errs []error
	if s.c != nil {
		left, err := s.c.Close(ctx)
		if err != nil {
			errs = append(errs, fmt.Errorf("client close: %w", err))
		}
		for epc := range left {
			errs = append(errs, fmt.Errorf("session %s still open at close", epc))
		}
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	s.serving.Wait()
	if s.closeJournal != nil {
		if err := s.closeJournal(); err != nil {
			errs = append(errs, fmt.Errorf("journal close: %w", err))
		}
	}
	return errors.Join(errs...)
}

// warm decodes the warm-up stroke set unpaced: every stroke opened,
// streamed in interleaved batches and finalized, each result checked
// against its reference.
func (s *system) warm(ctx context.Context, w *warmup, o *ops) {
	const chunk = 16
	for _, epc := range w.epcs {
		o.try(s.c.OpenSession(ctx, epc))
	}
	var batch []polardraw.Sample
	for off := 0; ; off += chunk {
		batch = batch[:0]
		for i, b := range w.bases {
			if off >= len(b.samples) {
				continue
			}
			for _, smp := range b.samples[off:min(off+chunk, len(b.samples))] {
				smp.EPC = w.epcs[i]
				batch = append(batch, smp)
			}
		}
		if len(batch) == 0 {
			break
		}
		o.try(s.c.DispatchBatch(ctx, batch))
	}
	for i, epc := range w.epcs {
		err := awaitReceived(ctx, s.c, epc, len(w.bases[i].samples), nil)
		var res *polardraw.Result
		if err == nil {
			res, err = s.c.Finalize(ctx, epc)
		}
		if err == nil {
			err = checkResult(res, w.bases[i].ref)
		}
		if err != nil {
			err = fmt.Errorf("warm-up stroke %s: %w", epc, err)
		}
		o.try(err)
	}
}

// setUp builds the tier and decodes the warm-up set, returning the
// system and the set-up time.
func setUp(ctx context.Context, sp spec, ants [2]rf.Antenna, w *warmup, tr *tracer, strokeOf func(string) int64, o *ops) (*system, time.Duration, error) {
	t0 := time.Now()
	sys, err := buildSystem(ctx, sp, ants, tr, strokeOf)
	if err != nil {
		return nil, 0, err
	}
	sys.warm(ctx, w, o)
	return sys, time.Since(t0), nil
}

// receiptWaits counts the Client.Stats polls awaitReceived makes and
// the time spent in them, so the harness's own load is visible.
type receiptWaits struct {
	polls, ns atomic.Int64
}

// awaitReceived waits until the EPC's session has received n samples.
// In-process shards take samples through an asynchronous ingress queue
// that Finalize does not wait for (see session.LocalBackend.Finalize),
// so a client must see the whole stroke arrive before finalizing it,
// as the package example does. Remote shards receive dispatches and
// Finalize in order on one connection and need no wait. Each poll
// snapshots every session, so polls back off from 250 µs to 2 ms.
// w may be nil.
func awaitReceived(ctx context.Context, c *polardraw.Client, epc string, n int, w *receiptWaits) error {
	if c.Remote() {
		return nil
	}
	for wait := 250 * time.Microsecond; ; wait = min(2*wait, 2*time.Millisecond) {
		t0 := time.Now()
		sts, err := c.Stats(ctx)
		if w != nil {
			w.polls.Add(1)
			w.ns.Add(int64(time.Since(t0)))
		}
		if err != nil {
			return fmt.Errorf("stats for %s: %w", epc, err)
		}
		i := sort.Search(len(sts), func(i int) bool { return sts[i].EPC >= epc })
		if i < len(sts) && sts[i].EPC == epc && sts[i].Received >= uint64(n) {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
	}
}
