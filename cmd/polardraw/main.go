// Command polardraw is the whiteboard-in-the-air demo: it synthesizes a
// writing session (or collects one from an LLRP reader), runs the
// PolarDraw tracking pipeline, renders the recovered trajectory as
// ASCII art, and classifies it.
//
// The serving modes (-serve, -serve-shard) are consumers of the public
// polardraw client API; the decode/topology flags they share with
// cmd/loadgen come from polardraw.BindFlags.
//
// Usage:
//
//	polardraw -text HELLO                # simulate and track a word
//	polardraw -letter Q -air             # one in-air letter
//	polardraw -llrp 127.0.0.1:5084       # track a live LLRP stream
//	polardraw -serve -llrp 127.0.0.1:5084 # multi-pen streaming session server
//	polardraw -serve-shard -listen :7100 # shard RPC server (see cmd/loadgen -shards)
//	polardraw -text WOW -system tagoram4 # use a baseline system
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"polardraw"
	"polardraw/internal/experiment"
	"polardraw/internal/geom"
	"polardraw/internal/llrp"
	"polardraw/internal/reader"
	"polardraw/internal/recognition"
)

func main() {
	var (
		text    = flag.String("text", "", "word to write and track (A-Z)")
		letter  = flag.String("letter", "", "single letter to write and track")
		air     = flag.Bool("air", false, "write in the air instead of on the whiteboard")
		seed    = flag.Uint64("seed", 1, "simulation seed")
		system  = flag.String("system", "polardraw", "tracking system: polardraw, polardraw-nopol, tagoram2, tagoram4, rfidraw4")
		llrpSrv = flag.String("llrp", "", "track a live LLRP reader at host:port instead of simulating")
		serve   = flag.Bool("serve", false, "with -llrp: run the streaming session server, demuxing every pen in the stream")
		size    = flag.Float64("size", 0.20, "letter size in metres")

		shard  = flag.Bool("serve-shard", false, "run a shard RPC server hosting one session manager (a multi-process shard; see cmd/loadgen -shards)")
		listen = flag.String("listen", ":7100", "with -serve-shard: TCP listen address")

		// The serving tier's decode/topology flags (-shards, -window,
		// -lag, -topk, ...) are shared with cmd/loadgen through one
		// registration.
		sf = polardraw.BindFlags(flag.CommandLine)
	)
	flag.Parse()
	ctx := context.Background()

	sys, err := parseSystem(*system)
	if err != nil {
		fatal(err)
	}

	sc := experiment.Default(*seed)
	sc.InAir = *air
	sc.LetterSize = *size

	if *shard {
		if err := serveShard(sc, *listen, sf); err != nil {
			fatal(err)
		}
		return
	}
	if *serve {
		if *llrpSrv == "" {
			fatal(fmt.Errorf("-serve requires -llrp host:port"))
		}
		if err := serveLLRP(ctx, sc, *llrpSrv, sf); err != nil {
			fatal(err)
		}
		return
	}
	if *llrpSrv != "" {
		if err := trackLLRP(sc, sys, *llrpSrv); err != nil {
			fatal(err)
		}
		return
	}

	label := strings.ToUpper(*text)
	if *letter != "" {
		label = strings.ToUpper(*letter)
	}
	if label == "" {
		label = "HI"
	}

	var trial experiment.Trial
	if len(label) == 1 {
		trial, err = sc.RunLetter(sys, rune(label[0]), 1)
	} else {
		trial, err = sc.RunWord(sys, label, 1)
	}
	if err != nil {
		fatal(err)
	}
	report(sys, trial)
}

func parseSystem(s string) (experiment.System, error) {
	switch strings.ToLower(s) {
	case "polardraw":
		return experiment.PolarDraw2, nil
	case "polardraw-nopol":
		return experiment.PolarDrawNoPol, nil
	case "tagoram2":
		return experiment.Tagoram2, nil
	case "tagoram4":
		return experiment.Tagoram4, nil
	case "rfidraw4":
		return experiment.RFIDraw4, nil
	default:
		return 0, fmt.Errorf("unknown system %q", s)
	}
}

func report(sys experiment.System, trial experiment.Trial) {
	fmt.Printf("system: %s\n", sys)
	fmt.Printf("wrote:  %s\n\n", trial.Label)
	fmt.Println("ground truth:")
	fmt.Print(experiment.RenderTrajectory(trial.Truth, 60, 14))
	fmt.Println("\nrecovered:")
	fmt.Print(experiment.RenderTrajectory(trial.Recovered, 60, 14))
	fmt.Printf("\nProcrustes distance: %.1f cm\n", trial.Procrustes*100)

	if len(trial.Label) == 1 {
		lr := recognition.NewLetterRecognizer()
		if got, d, err := lr.Classify(trial.Recovered); err == nil {
			fmt.Printf("recognized as: %c (distance %.3f)\n", got, d)
		}
	} else if len(trial.Label) >= 2 && len(trial.Label) <= 5 {
		wr := recognition.NewWordRecognizer(experiment.Lexicon(len(trial.Label)))
		if got, d, err := wr.Classify(trial.Recovered); err == nil {
			fmt.Printf("recognized as: %s (distance %.3f, lexicon %v)\n", got, d, wr.Lexicon())
		}
	}
}

// trackLLRP collects samples from a live (or simulated, see
// cmd/readersim) LLRP reader and tracks them with PolarDraw.
func trackLLRP(sc experiment.Scenario, sys experiment.System, addr string) error {
	c, err := llrp.Dial(addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		return err
	}
	samples, err := c.Collect()
	if err != nil {
		return err
	}
	fmt.Printf("collected %d tag reads over LLRP from %s\n", len(samples), addr)
	traj, err := trackSamples(sc, sys, samples)
	if err != nil {
		return err
	}
	fmt.Println("recovered trajectory:")
	fmt.Print(experiment.RenderTrajectory(traj, 60, 14))
	return nil
}

func trackSamples(sc experiment.Scenario, sys experiment.System, samples []reader.Sample) (geom.Polyline, error) {
	// The experiment package owns system construction; route through a
	// scenario-built tracker on the default rig.
	return experiment.TrackerFor(sc, sys).Track(samples)
}

// serveLLRP runs the streaming session server on the public client
// API: it subscribes to the LLRP report stream, demultiplexes every
// pen (EPC) in it through the serving tier, prints live progress from
// the unified event stream, and renders each pen's trajectory when the
// stream ends.
func serveLLRP(ctx context.Context, sc experiment.Scenario, addr string, sf *polardraw.Flags) error {
	c, err := llrp.Dial(addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		return err
	}
	fmt.Printf("session server: streaming from %s\n", addr)

	newClient := func(pensSeen int) (*polardraw.Client, error) {
		opts, err := sf.Options()
		if err != nil {
			return nil, err
		}
		if *sf.Window == 0 {
			// The aggregate read rate divides among the pens, so the
			// averaging window grows proportionally to keep both
			// antennas represented in each window; the 1.5 slack
			// absorbs inventory slot jitter.
			window := 0.05 * float64(pensSeen)
			if pensSeen > 1 {
				window *= 1.5
			}
			opts = append(opts, polardraw.WithWindow(window))
		}
		opts = append(opts, polardraw.WithAntennas(sc.Rig.Antennas()))
		return polardraw.Open(ctx, opts...)
	}

	// Live progress from the unified event stream: one subscription
	// covers every pen on every shard.
	progress := func(cl *polardraw.Client) polardraw.CancelFunc {
		events, cancel := cl.Subscribe(ctx)
		go func() {
			windows := map[string]int{}
			for ev := range events {
				if ev.Kind != polardraw.EventPoint {
					continue
				}
				windows[ev.EPC]++
				if n := windows[ev.EPC]; n%10 == 1 { // progress line every 10 windows per pen
					epc := ev.EPC
					fmt.Printf("  pen …%s t=%5.2fs window %3d live=(%.3f, %.3f)\n",
						epc[max(0, len(epc)-6):], ev.Window.T, n, ev.Live.X, ev.Live.Y)
				}
			}
		}()
		return cancel
	}

	// Peek at the first second of traffic to learn the pen count (it
	// sets the auto window), then dispatch live.
	var client *polardraw.Client
	var pending []reader.Sample
	epcs := map[string]bool{}
	err = c.Stream(func(batch []reader.Sample) error {
		for _, s := range batch {
			if !epcs[s.EPC] {
				epcs[s.EPC] = true
				if client != nil {
					// The window was sized from the pens seen in the
					// first second; a later joiner shares the read
					// rate but not that sizing, so its decode may be
					// too coarse to survive. Tell the operator.
					fmt.Printf("warning: pen %s joined after the window was fixed; "+
						"restart -serve (or set -window) to size for %d pens\n",
						s.EPC, len(epcs))
				}
			}
		}
		if client == nil {
			pending = append(pending, batch...)
			// Elapsed (not absolute) time: a real reader stamps
			// reports with epoch microseconds.
			if last := pending[len(pending)-1]; last.T-pending[0].T < 1.0 {
				return nil
			}
			cl, err := newClient(len(epcs))
			if err != nil {
				return err
			}
			client = cl
			progress(client)
			fmt.Printf("session server: %d pen(s) detected\n", len(epcs))
			err = client.DispatchBatch(ctx, pending)
			pending = nil
			return err
		}
		return client.DispatchBatch(ctx, batch)
	})
	if err != nil {
		return err
	}
	if client == nil {
		// Short stream: everything is still buffered.
		cl, err := newClient(len(epcs))
		if err != nil {
			return err
		}
		client = cl
		if err := client.DispatchBatch(ctx, pending); err != nil {
			return err
		}
	}

	// A sample is counted when its dispatch enqueues it, so one
	// snapshot after the last dispatch covers the full stream.
	stats, err := client.Stats(ctx)
	if err != nil {
		return err
	}
	results, err := client.Close(ctx) // drains the remaining queued reports
	if err != nil {
		return err
	}
	for _, st := range stats {
		fmt.Printf("pen %s: %d reads, queue depth mean %.1f max %d\n",
			st.EPC, st.Received, st.QueueMeanDepth, st.QueueMaxDepth)
	}
	if len(results) == 0 {
		return fmt.Errorf("no pen produced a decodable stream")
	}
	for epc, res := range results {
		fmt.Printf("\npen %s (%d windows, correction %.2f rad):\n",
			epc, len(res.Windows), res.Correction)
		fmt.Print(experiment.RenderTrajectory(res.Trajectory, 60, 12))
	}
	return nil
}

// serveShard runs one shard of the multi-process session tier: a
// polardraw.ShardServer on the default rig, spoken to by clients
// opened with WithShardServers (see cmd/loadgen -shards). It serves
// until killed.
func serveShard(sc experiment.Scenario, addr string, sf *polardraw.Flags) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	opts, err := sf.Options()
	if err != nil {
		return err
	}
	opts = append(opts, polardraw.WithAntennas(sc.Rig.Antennas()))
	srv := polardraw.NewShardServer(opts...)
	if *sf.MetricsAddr != "" {
		ms, err := srv.ServeMetrics(*sf.MetricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer ms.Close()
		fmt.Printf("shard server: metrics at http://%s/metrics\n", ms.Addr())
	}
	maxSessions := *sf.MaxSessions
	if maxSessions == 0 {
		maxSessions = polardraw.DefaultServerMaxSessions
	}
	fmt.Printf("shard server: listening on %s (window=%gs lag=%d topk=%d max-sessions=%d)\n",
		ln.Addr(), *sf.Window, *sf.Lag, *sf.TopK, maxSessions)
	return srv.Serve(ln)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "polardraw:", err)
	os.Exit(1)
}
