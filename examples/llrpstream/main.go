// LLRP stream: the full networking path of the paper's implementation
// (section 4), extended to the section 7 multi-user setting. A
// simulated ImpinJ-class reader inventories FOUR tagged pens writing
// simultaneously and serves the mixed tag-report stream over the
// LLRP-lite protocol on a loopback TCP socket. The client side is the
// public polardraw serving API: it subscribes to the live report
// stream, demultiplexes the pens by EPC, decodes every trajectory
// incrementally as report batches arrive — no pen waits for the
// session to end before its windows are processed — and watches live
// progress on the unified event stream.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"polardraw"
	"polardraw/internal/experiment"
	"polardraw/internal/font"
	"polardraw/internal/geom"
	"polardraw/internal/llrp"
	"polardraw/internal/motion"
	"polardraw/internal/reader"
	"polardraw/internal/rf"
	"polardraw/internal/tag"
)

func main() {
	ctx := context.Background()

	// Reader side: four users write different letters at once; the
	// EPC Gen2 inventory divides the read rate among their tags.
	rig := motion.DefaultRig()
	antennas := rig.Antennas()
	channel := &rf.Channel{Reflectors: rf.OfficeReflectors(rig.BoardW)}
	tag.AD227(1).ApplyTo(channel)

	letters := []rune{'H', 'E', 'L', 'O'}
	scenes := make([]reader.TaggedScene, 0, len(letters))
	truth := map[string]geom.Polyline{}
	labels := map[string]string{}
	for k, r := range letters {
		g, ok := font.Lookup(r)
		if !ok {
			log.Fatalf("no glyph %c", r)
		}
		path := g.Path().Scale(0.2).Translate(geom.Vec2{X: 0.18, Y: 0.03})
		sess := motion.Write(path, string(r), motion.Config{Seed: uint64(31 + k)})
		epc := tag.AD227(uint32(k + 1)).EPC
		scenes = append(scenes, reader.TaggedScene{EPC: epc, Scene: sess})
		truth[epc] = sess.Truth
		labels[epc] = sess.Label
	}
	rd := reader.New(reader.Config{
		Antennas: antennas[:],
		Channel:  channel,
		EPC:      scenes[0].EPC,
		Seed:     31,
	})
	srv := &llrp.Server{Samples: rd.MultiInventory(scenes), BatchSize: 16}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	fmt.Printf("reader simulator: %d pens on %s\n", len(scenes), ln.Addr())

	// Client side: the public serving API. Four pens share the
	// ~100 reads/s aggregate rate, so the preprocessing window grows
	// proportionally (4 x 50 ms, plus slack for slot jitter).
	client, err := polardraw.Open(ctx,
		polardraw.WithAntennas(antennas),
		polardraw.WithWindow(0.3),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Live progress per pen from the unified event stream — the
	// replacement for the old per-callback hooks.
	events, cancelEvents := client.Subscribe(ctx)
	go func() {
		windows := map[string]int{}
		for ev := range events {
			if ev.Kind != polardraw.EventPoint {
				continue
			}
			windows[ev.EPC]++
			if n := windows[ev.EPC]; n%8 == 1 {
				fmt.Printf("  [%s] window %2d at t=%4.1fs: live estimate (%.2f, %.2f)\n",
					labels[ev.EPC], n, ev.Window.T, ev.Live.X, ev.Live.Y)
			}
		}
	}()
	defer cancelEvents()

	c, err := llrp.Dial(ln.Addr().String(), 2*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		log.Fatal(err)
	}
	var streamed int
	if err := c.Stream(func(batch []reader.Sample) error {
		streamed += len(batch)
		return client.DispatchBatch(ctx, batch)
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streamed %d tag reads over LLRP\n", streamed)

	// Close drains every session queue and finalizes every session.
	results, err := client.Close(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decoded %d sessions\n", len(results))
	if len(results) < len(scenes) {
		log.Fatalf("only %d of %d pens decoded", len(results), len(scenes))
	}
	for _, sc := range scenes {
		res := results[sc.EPC]
		dist, err := geom.ProcrustesDistance(res.Trajectory, truth[sc.EPC], 64)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\npen %s wrote %q — %.1f cm Procrustes error:\n",
			sc.EPC, labels[sc.EPC], dist*100)
		fmt.Print(experiment.RenderTrajectory(res.Trajectory, 48, 10))
	}
}
