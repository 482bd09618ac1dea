package polardraw_test

import (
	"context"
	"errors"
	"flag"
	"net"
	"reflect"
	"testing"
	"time"

	"polardraw"
)

// TestClientLocalRemoteParity drives the identical workload through
// the public API's two topologies — in-process shards and a
// ShardServer behind WithShardServers — with identical decode options,
// and requires bit-identical results per pen plus a live event stream
// on both.
func TestClientLocalRemoteParity(t *testing.T) {
	const pens = 3
	samples, _, antennas := penScene(pens, 41)
	ctx := context.Background()

	decode := []polardraw.Option{
		polardraw.WithAntennas(antennas),
		polardraw.WithWindow(0.15),
		polardraw.WithBeamTopK(polardraw.DefaultBeamTopK),
		polardraw.WithCommitLag(polardraw.DefaultCommitLag),
	}

	local, err := polardraw.Open(ctx, append([]polardraw.Option{polardraw.WithShards(2)}, decode...)...)
	if err != nil {
		t.Fatal(err)
	}

	srv := polardraw.NewShardServer(decode...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	remote, err := polardraw.Open(ctx, append([]polardraw.Option{
		polardraw.WithShardServers(ln.Addr().String()),
		polardraw.WithHeartbeat(100 * time.Millisecond),
	}, decode...)...)
	if err != nil {
		t.Fatal(err)
	}
	if local.Remote() || !remote.Remote() {
		t.Fatal("topology misdetected")
	}

	// Both sides watch the unified stream.
	countPoints := func(c *polardraw.Client) (func() int, polardraw.CancelFunc, chan struct{}) {
		events, cancel := c.Subscribe(ctx)
		n := make(chan int, 1)
		n <- 0
		done := make(chan struct{})
		go func() {
			defer close(done)
			for ev := range events {
				if ev.Kind == polardraw.EventPoint {
					v := <-n
					n <- v + 1
				}
			}
		}()
		get := func() int { v := <-n; n <- v; return v }
		return get, cancel, done
	}
	localPoints, localCancel, localDone := countPoints(local)
	remotePoints, remoteCancel, remoteDone := countPoints(remote)

	if err := local.DispatchBatch(ctx, samples); err != nil {
		t.Fatal(err)
	}
	if err := remote.DispatchBatch(ctx, samples); err != nil {
		t.Fatal(err)
	}

	want, err := local.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := remote.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	localCancel()
	<-localDone
	remoteCancel()
	<-remoteDone

	if len(want) != pens || len(got) != pens {
		t.Fatalf("decoded local=%d remote=%d, want %d", len(want), len(got), pens)
	}
	for epc, w := range want {
		if !reflect.DeepEqual(got[epc], w) {
			t.Fatalf("EPC %s: remote facade decode diverged from local", epc)
		}
	}
	if localPoints() == 0 || remotePoints() == 0 {
		t.Fatalf("event streams silent: local=%d remote=%d points", localPoints(), remotePoints())
	}

	// Telemetry surfaces match the topology.
	if _, _, ok := local.StencilCacheStats(); !ok {
		t.Fatal("local client hides its stencil cache")
	}
	if _, _, ok := remote.StencilCacheStats(); ok {
		t.Fatal("remote client claims a local stencil cache")
	}
	if h := remote.Health(); len(h) != 1 || h[0].Name != ln.Addr().String() {
		t.Fatalf("remote health = %+v", h)
	}

	// One closed-state contract on both topologies: typed ErrClosed,
	// backend health untouched, an already-closed Subscribe channel and
	// an idempotent Close.
	for name, c := range map[string]*polardraw.Client{"local": local, "remote": remote} {
		if err := c.Dispatch(ctx, samples[0]); !errors.Is(err, polardraw.ErrClosed) {
			t.Fatalf("%s: dispatch after close: %v, want ErrClosed", name, err)
		}
		if _, err := c.Finalize(ctx, "nobody"); !errors.Is(err, polardraw.ErrClosed) {
			t.Fatalf("%s: finalize after close: %v, want ErrClosed", name, err)
		}
		if n, err := c.Len(ctx); n != 0 || !errors.Is(err, polardraw.ErrClosed) {
			t.Fatalf("%s: Len after close = %d, %v; want 0, ErrClosed", name, n, err)
		}
		if h, u := c.HealthCounts(); h != len(c.Backends()) || u != 0 {
			t.Fatalf("%s: health after post-close calls: %d healthy, %d unhealthy", name, h, u)
		}
		events, cancel := c.Subscribe(ctx)
		select {
		case _, ok := <-events:
			if ok {
				t.Fatalf("%s: Subscribe after close delivered an event", name)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: Subscribe after close never closes its channel", name)
		}
		cancel()
		if res, err := c.Close(ctx); res != nil || err != nil {
			t.Fatalf("%s: second Close = %v, %v; want nil, nil", name, res, err)
		}
	}
}

// TestFlagsWiring pins the shared flag helper: registrations parse
// into options for both topologies and reject nonsense.
func TestFlagsWiring(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := polardraw.BindFlags(fs)
	if err := fs.Parse([]string{"-shards", "3", "-topk", "64", "-lag", "16", "-window", "0.2", "-drop"}); err != nil {
		t.Fatal(err)
	}
	if f.Remote() {
		t.Fatal("count misread as remote")
	}
	opts, err := f.Options()
	if err != nil {
		t.Fatal(err)
	}
	_, _, antennas := penScene(1, 1)
	c, err := polardraw.Open(context.Background(), append(opts, polardraw.WithAntennas(antennas))...)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Backends()) != 3 {
		t.Fatalf("backends = %v, want 3 shards", c.Backends())
	}
	c.Close(context.Background())

	fs2 := flag.NewFlagSet("t2", flag.ContinueOnError)
	f2 := polardraw.BindFlags(fs2)
	if err := fs2.Parse([]string{"-shards", "h1:1,h2:2"}); err != nil {
		t.Fatal(err)
	}
	if !f2.Remote() || len(f2.Addrs()) != 2 {
		t.Fatalf("remote parse: remote=%v addrs=%v", f2.Remote(), f2.Addrs())
	}

	fs3 := flag.NewFlagSet("t3", flag.ContinueOnError)
	f3 := polardraw.BindFlags(fs3)
	if err := fs3.Parse([]string{"-shards", "0"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f3.Options(); err == nil {
		t.Fatal("zero shard count accepted")
	}
}

// TestOpenDialFailure pins the facade's connect-time error taxonomy: a
// dead server address fails Open with ErrBackendUnavailable.
func TestOpenDialFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listening any more

	_, err = polardraw.Open(context.Background(), polardraw.WithShardServers(addr))
	if !errors.Is(err, polardraw.ErrBackendUnavailable) {
		t.Fatalf("open against dead address = %v, want ErrBackendUnavailable", err)
	}
}
