package polardraw_test

import (
	"context"
	"fmt"
	"log"
	"sort"

	"polardraw"
	"polardraw/internal/font"
	"polardraw/internal/geom"
	"polardraw/internal/motion"
	"polardraw/internal/reader"
	"polardraw/internal/rf"
	"polardraw/internal/tag"
)

// penScene synthesizes the mixed tag-report stream of n pens writing
// letters simultaneously over one simulated reader — the examples'
// stand-in for a live LLRP stream.
func penScene(n int, seed uint64) ([]polardraw.Sample, []string, [2]polardraw.Antenna) {
	rig := motion.DefaultRig()
	ants := rig.Antennas()
	ch := &rf.Channel{Reflectors: rf.OfficeReflectors(rig.BoardW)}
	tag.AD227(1).ApplyTo(ch)
	letters := []rune{'A', 'C', 'M', 'S'}
	scenes := make([]reader.TaggedScene, 0, n)
	epcs := make([]string, 0, n)
	for k := 0; k < n; k++ {
		g, _ := font.Lookup(letters[k%len(letters)])
		path := g.Path().Scale(0.18).Translate(geom.Vec2{X: 0.18, Y: 0.03})
		sess := motion.Write(path, string(letters[k%len(letters)]), motion.Config{Seed: seed + uint64(k)})
		epc := tag.AD227(uint32(k + 1)).EPC
		scenes = append(scenes, reader.TaggedScene{EPC: epc, Scene: sess})
		epcs = append(epcs, epc)
	}
	rd := reader.New(reader.Config{Antennas: ants[:], Channel: ch, EPC: "", Seed: seed})
	return rd.MultiInventory(scenes), epcs, ants
}

// ExampleOpen runs the whole serving lifecycle against in-process
// shards: open, ingest a mixed two-pen stream, close, and read back
// one decoded trajectory per pen.
func ExampleOpen() {
	samples, _, antennas := penScene(2, 7)
	ctx := context.Background()

	c, err := polardraw.Open(ctx,
		polardraw.WithAntennas(antennas),
		polardraw.WithShards(2),
		polardraw.WithWindow(0.1), // two pens share the read rate
	)
	if err != nil {
		log.Fatal(err)
	}
	if err := c.DispatchBatch(ctx, samples); err != nil {
		log.Fatal(err)
	}
	results, err := c.Close(ctx)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("pens decoded:", len(results))
	epcs := make([]string, 0, len(results))
	for epc := range results {
		epcs = append(epcs, epc)
	}
	sort.Strings(epcs)
	for _, epc := range epcs {
		fmt.Printf("%s: trajectory decoded = %v\n", epc, len(results[epc].Trajectory) > 0)
	}
	// Output:
	// pens decoded: 2
	// e28011010000000000000001: trajectory decoded = true
	// e28011020000000000000002: trajectory decoded = true
}

// ExampleClient_OpenSession gives one pen its own decode
// configuration: the same options that set the client-wide default at
// Open override per session here, and travel to remote shards
// unchanged.
func ExampleClient_OpenSession() {
	samples, epcs, antennas := penScene(1, 11)
	ctx := context.Background()

	c, err := polardraw.Open(ctx,
		polardraw.WithAntennas(antennas),
		polardraw.WithWindow(0.05),
	)
	if err != nil {
		log.Fatal(err)
	}
	// This pen trades accuracy for memory: a narrow beam and a tight
	// smoothing lag, regardless of the client-wide defaults.
	err = c.OpenSession(ctx, epcs[0],
		polardraw.WithBeamTopK(64),
		polardraw.WithCommitLag(16),
	)
	if err != nil {
		log.Fatal(err)
	}
	if err := c.DispatchBatch(ctx, samples); err != nil {
		log.Fatal(err)
	}
	// Finalize is ordered after every dispatch that returned before
	// it, so the result covers the whole stream.
	res, err := c.Finalize(ctx, epcs[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("decoded:", len(res.Trajectory) > 0)
	// Output:
	// decoded: true
}

// ExampleClient_Subscribe consumes the unified event stream: one
// subscription observes window closes, live points, smoother commits,
// and evictions for every pen on every shard — local or remote.
func ExampleClient_Subscribe() {
	samples, _, antennas := penScene(1, 13)
	ctx := context.Background()

	c, err := polardraw.Open(ctx,
		polardraw.WithAntennas(antennas),
		polardraw.WithWindow(0.05),
		polardraw.WithCommitLag(8),
		// Room for every event of the stroke (it emits fewer events
		// than samples), so a consumer that falls behind loses none
		// and the counts below are exact.
		polardraw.WithEventBuffer(2*len(samples)),
	)
	if err != nil {
		log.Fatal(err)
	}
	events, cancel := c.Subscribe(ctx)
	done := make(chan map[polardraw.EventKind]int)
	go func() {
		kinds := map[polardraw.EventKind]int{}
		for ev := range events {
			kinds[ev.Kind]++
		}
		done <- kinds
	}()

	if err := c.DispatchBatch(ctx, samples); err != nil {
		log.Fatal(err)
	}
	if _, err := c.Close(ctx); err != nil {
		log.Fatal(err)
	}
	cancel()
	kinds := <-done

	fmt.Println("window closes = points:", kinds[polardraw.EventWindowClose] == kinds[polardraw.EventPoint])
	fmt.Println("saw commits:", kinds[polardraw.EventCommit] > 0)
	fmt.Println("evictions:", kinds[polardraw.EventEvict])
	// Output:
	// window closes = points: true
	// saw commits: true
	// evictions: 1
}
