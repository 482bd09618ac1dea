package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"polardraw/internal/core"
	"polardraw/internal/rf"
)

// coreStats is the decode layer measured alone: the workload's strokes
// replayed single-threaded through a fresh tracker, with the same
// checkpoint cadence the sessions run.
type coreStats struct {
	samples       int
	pushNs        int64
	windowUS      []float64 // Push calls that closed a window
	allocs, bytes uint64
	hits, lookups uint64
	snapshotUS    []float64
	snapshotBytes int
	finalizeMS    []float64
}

// replayCore decodes every stroke of s in start order, one at a time,
// timing Push per sample, Snapshot every checkpointN windows, and
// Finalize. Spans go to tr after the allocation count is taken, so
// the tracer's own allocations are not charged to the decoder.
func replayCore(ants [2]rf.Antenna, s *schedule, tr *tracer) (*coreStats, error) {
	order := make([]int, len(s.strokes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return s.strokes[order[a]].start < s.strokes[order[b]].start })

	trk := core.New(servingConfig(ants))
	// Every buffer is sized up front so the timed loop's allocations
	// are the decoder's own.
	cs := &coreStats{
		windowUS:   make([]float64, 0, s.samples/4),
		snapshotUS: make([]float64, 0, s.samples/4/checkpointN+len(order)),
		finalizeMS: make([]float64, 0, len(order)),
	}
	var spans []span
	if tr != nil {
		spans = make([]span, 0, s.samples/4+3*len(order))
	}
	results := make([]*core.Result, 0, len(order))
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for _, sid := range order {
		b := s.strokes[sid].base
		strokeID := tr.newID()
		sStart := tr.now()
		st := trk.StreamWith(trk.Config())
		lastCk := 0
		for i := range b.samples {
			w0 := st.Windows()
			t0 := time.Now()
			if err := st.Push(b.samples[i]); err != nil {
				return nil, err
			}
			d := time.Since(t0)
			cs.pushNs += int64(d)
			if st.Windows() == w0 {
				continue
			}
			cs.windowUS = append(cs.windowUS, float64(d)/1e3)
			if tr != nil {
				end := tr.now()
				spans = append(spans, span{Parent: strokeID, Name: "core.window", Stroke: int64(sid), Start: end - int64(d), End: end})
			}
			if st.Windows()-lastCk >= checkpointN {
				lastCk = st.Windows()
				t1 := time.Now()
				state, err := st.Snapshot()
				if err != nil {
					return nil, err
				}
				d := time.Since(t1)
				cs.snapshotUS = append(cs.snapshotUS, float64(d)/1e3)
				cs.snapshotBytes += len(state)
				if tr != nil {
					end := tr.now()
					spans = append(spans, span{Parent: strokeID, Name: "core.snapshot", Stroke: int64(sid), Start: end - int64(d), End: end})
				}
			}
		}
		cs.samples += len(b.samples)
		t2 := time.Now()
		res, err := st.Finalize()
		if err != nil {
			return nil, err
		}
		d := time.Since(t2)
		cs.finalizeMS = append(cs.finalizeMS, float64(d)/1e6)
		results = append(results, res)
		if tr != nil {
			end := tr.now()
			spans = append(spans,
				span{Parent: strokeID, Name: "core.finalize", Stroke: int64(sid), Start: end - int64(d), End: end},
				span{ID: strokeID, Name: "core.stroke", Stroke: int64(sid), Start: sStart, End: end})
		}
	}
	runtime.ReadMemStats(&m1)
	cs.allocs = m1.Mallocs - m0.Mallocs
	cs.bytes = m1.TotalAlloc - m0.TotalAlloc
	for i, sid := range order {
		if err := checkResult(results[i], s.strokes[sid].base.ref); err != nil {
			return nil, fmt.Errorf("core replay of stroke %d: %w", sid, err)
		}
	}
	h, miss := trk.StencilCacheStats()
	cs.hits, cs.lookups = h, h+miss
	for _, sp := range spans {
		tr.add(sp)
	}
	return cs, nil
}
