package polardraw_test

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"polardraw"
	"polardraw/internal/tag"
)

// TestClusterStats is the telemetry aggregation acceptance: a client
// over two real shard servers merges both shards' registries with its
// own, so the cluster view carries decode-layer histograms neither the
// client nor a single shard recorded alone.
func TestClusterStats(t *testing.T) {
	const pens = 8
	samples, epcs, antennas := penScene(pens, 73)
	ctx := context.Background()

	decode := []polardraw.Option{
		polardraw.WithAntennas(antennas),
		polardraw.WithWindow(0.15),
	}
	var addrs []string
	var srvs []*polardraw.ShardServer
	for i := 0; i < 2; i++ {
		srv := polardraw.NewShardServer(decode...)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(srv.Close)
		srvs = append(srvs, srv)
		addrs = append(addrs, ln.Addr().String())
	}

	c, err := polardraw.Open(ctx, polardraw.WithShardServers(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	spreadPens(t, c, samples, epcs)
	if err := c.DispatchBatch(ctx, samples); err != nil {
		t.Fatal(err)
	}

	// Decode is asynchronous behind each shard's queues: wait until both
	// shards have closed windows, so the aggregation claim is not
	// satisfiable from one shard alone.
	deadline := time.Now().Add(10 * time.Second)
	for {
		a := srvs[0].Telemetry().Snapshot().Histograms["polardraw_decode_window_close_seconds"]
		b := srvs[1].Telemetry().Snapshot().Histograms["polardraw_decode_window_close_seconds"]
		if a.Count > 0 && b.Count > 0 {
			agg, err := c.ClusterStats(ctx)
			if err != nil {
				t.Fatalf("cluster stats: %v", err)
			}
			got := agg.Histograms["polardraw_decode_window_close_seconds"]
			if got.Count < a.Count+b.Count {
				t.Fatalf("aggregate windows %d < shard sum %d+%d", got.Count, a.Count, b.Count)
			}
			if agg.Histograms["polardraw_rpc_batch_samples"].Count == 0 {
				t.Fatal("aggregate missing the client-side rpc batch histogram")
			}
			if agg.Gauges["polardraw_sessions_live"] != float64(pens) {
				t.Fatalf("aggregate sessions_live = %v, want %d across both shards",
					agg.Gauges["polardraw_sessions_live"], pens)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("both shards never closed windows (shard0=%d shard1=%d); "+
				"pens are not spreading across the cluster", a.Count, b.Count)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if _, err := c.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// spreadPens relabels pens so that every backend of c owns at least
// one. Rendezvous placement hashes the backends' names — for shard
// servers, their ephemeral ports — so without it all pens land on one
// shard in a small fraction of runs. A pen moves by taking the first
// unused tag EPC that the empty backend owns.
func spreadPens(t *testing.T, c *polardraw.Client, samples []polardraw.Sample, epcs []string) {
	t.Helper()
	owners := map[string][]string{}
	for _, epc := range epcs {
		b := c.BackendFor(epc)
		owners[b] = append(owners[b], epc)
	}
	next := uint32(len(epcs) + 1)
	for _, h := range c.Health() {
		if len(owners[h.Name]) > 0 {
			continue
		}
		var from string
		for b, own := range owners {
			if len(own) > 1 {
				from = b
				break
			}
		}
		if from == "" {
			t.Fatalf("%d pens cannot cover %d backends", len(epcs), len(c.Health()))
		}
		old := owners[from][0]
		owners[from] = owners[from][1:]
		fresh := tag.AD227(next).EPC
		for c.BackendFor(fresh) != h.Name {
			next++
			fresh = tag.AD227(next).EPC
		}
		next++
		for i := range samples {
			if samples[i].EPC == old {
				samples[i].EPC = fresh
			}
		}
		owners[h.Name] = []string{fresh}
	}
}

// TestClientSubscribeFiltered pins the public filter contract over
// in-process shards: a subscription narrowed to commits for one pen
// receives exactly that, while an unfiltered peer subscription on the
// same client sees the full stream.
func TestClientSubscribeFiltered(t *testing.T) {
	const pens = 2
	samples, epcs, antennas := penScene(pens, 79)
	ctx := context.Background()

	c, err := polardraw.Open(ctx,
		polardraw.WithAntennas(antennas),
		polardraw.WithShards(2),
		polardraw.WithWindow(0.15),
		polardraw.WithCommitLag(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	want := epcs[0]
	fevs, fcancel := c.SubscribeFiltered(ctx, polardraw.SubscribeOptions{
		Kinds: []polardraw.EventKind{polardraw.EventCommit},
		EPCs:  []string{want},
	})
	defer fcancel()
	pevs, pcancel := c.Subscribe(ctx)
	defer pcancel()

	if err := c.DispatchBatch(ctx, samples); err != nil {
		t.Fatal(err)
	}

	deadline := time.After(10 * time.Second)
	var commits int
	peerKinds := map[polardraw.EventKind]bool{}
	for commits == 0 || !peerKinds[polardraw.EventPoint] || !peerKinds[polardraw.EventCommit] {
		select {
		case ev := <-fevs:
			if ev.Kind != polardraw.EventCommit {
				t.Fatalf("filtered subscriber saw kind %v, want only commits", ev.Kind)
			}
			if ev.EPC != want {
				t.Fatalf("filtered subscriber saw EPC %q, want only %q", ev.EPC, want)
			}
			commits++
		case ev := <-pevs:
			peerKinds[ev.Kind] = true
		case <-deadline:
			t.Fatalf("timed out: commits=%d peerKinds=%v", commits, peerKinds)
		}
	}
	if _, err := c.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestServeMetrics checks the /metrics wiring end to end at the public
// layer: a client under load exposes the router and decode families in
// Prometheus text form on the address it was asked to serve.
func TestServeMetrics(t *testing.T) {
	samples, _, antennas := penScene(2, 83)
	ctx := context.Background()

	c, err := polardraw.Open(ctx,
		polardraw.WithAntennas(antennas),
		polardraw.WithShards(1),
		polardraw.WithWindow(0.15),
	)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := c.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	if err := c.DispatchBatch(ctx, samples); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Close(ctx); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + ms.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, fam := range []string{
		"polardraw_router_dispatch_seconds",
		"polardraw_decode_window_close_seconds",
		"polardraw_sessions_live",
	} {
		if !strings.Contains(text, fam) {
			t.Errorf("/metrics missing family %s:\n%s", fam, text)
		}
	}
}
