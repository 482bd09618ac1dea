// Package telemetry is the serving tier's dependency-free metrics
// registry: lock-cheap counters, gauges, and log-bucketed histograms
// threaded through every layer (decode, session, journal, router,
// shardrpc) and exposed three ways — the shardrpc telemetry RPC,
// Prometheus text-format /metrics exposition, and the per-PR latency
// artifact.
//
// Design constraints, in order:
//
//   - Hot-path cost when a handle exists is one atomic op; when
//     telemetry is off the handle is nil and every method is a nil
//     check. Layers therefore call Observe/Add/Set unconditionally.
//   - Histograms are fixed-memory (64 power-of-two buckets) and
//     mergeable, so per-shard snapshots aggregate into a cluster view
//     without transporting raw samples.
//   - No dependencies beyond the standard library.
//
// Metric naming follows the Prometheus convention directly
// (`polardraw_router_dispatch_seconds`); per-backend or per-direction
// variants embed labels in the name (`...{backend="shard0"}`), which
// the text exposition groups into one family.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count. A nil *Counter is a
// valid no-op, so callers never branch on "telemetry enabled".
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that goes up and down. A nil *Gauge is a valid
// no-op.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set records the current value.
func (g *Gauge) Set(x float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(x))
}

// Value returns the last Set value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the fixed bucket count: power-of-two boundaries from
// 2^histExpMin up, covering ~0.5µs..2500h for latencies in seconds and
// 1..2^43 for sizes — fixed memory regardless of stream length.
const (
	histBuckets = 64
	histExpMin  = -21 // bucket 0 upper bound 2^-21 ≈ 0.48µs
)

// bucketUpper returns the upper bound of bucket i.
func bucketUpper(i int) float64 {
	return math.Ldexp(1, histExpMin+i)
}

// bucketOf maps an observation to its bucket: the smallest i with
// x <= 2^(histExpMin+i), clamped to the table. Non-positive values
// land in bucket 0.
func bucketOf(x float64) int {
	if x <= 0 || math.IsNaN(x) {
		return 0
	}
	frac, exp := math.Frexp(x) // x = frac * 2^exp, frac in [0.5, 1)
	i := exp - 1 - histExpMin
	if frac > 0.5 { // not an exact power of two: round the bound up
		i++
	}
	if i < 0 {
		return 0
	}
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// Histogram is a log-bucketed distribution: 64 power-of-two buckets,
// lock-free Observe, mergeable snapshots with p50/p99/p999 extraction.
// A nil *Histogram is a valid no-op.
type Histogram struct {
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	buckets [histBuckets]atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	h.buckets[bucketOf(x)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		sum := math.Float64frombits(old) + x
		if h.sumBits.CompareAndSwap(old, math.Float64bits(sum)) {
			return
		}
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// snapshot captures the histogram's current state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram: plain
// values, safe to serialize, merge, and query.
type HistogramSnapshot struct {
	Count   int64
	Sum     float64
	Buckets [histBuckets]int64
}

// Merge adds other's observations into s.
func (s *HistogramSnapshot) Merge(other HistogramSnapshot) {
	s.Count += other.Count
	s.Sum += other.Sum
	for i := range s.Buckets {
		s.Buckets[i] += other.Buckets[i]
	}
}

// Quantile returns the q-th quantile (0..1) by cumulative walk with
// linear interpolation inside the landing bucket, or NaN when empty.
// Bucket resolution bounds the error at 2x (one octave).
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next || i == histBuckets-1 {
			lo := 0.0
			if i > 0 {
				lo = bucketUpper(i - 1)
			}
			hi := bucketUpper(i)
			frac := (rank - cum) / float64(n)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return bucketUpper(histBuckets - 1)
}

// Mean returns Sum/Count, or NaN when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	return s.Sum / float64(s.Count)
}

// Registry is a named collection of metrics. Handles are get-or-create
// and stable, so layers resolve them once at construction and keep the
// pointer — no map lookup on the hot path. A nil *Registry hands out
// nil handles, making "telemetry off" a single nil check per
// observation.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		funcs:    map[string]func() float64{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// GaugeFunc registers a gauge evaluated lazily at snapshot time — for
// values that already live elsewhere (live session count, journal
// loss) and would otherwise need a mirror write on every change.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// Snapshot is a point-in-time copy of a whole registry: plain maps,
// safe to serialize, merge across shards, and render.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]HistogramSnapshot
}

// Snapshot captures every metric. Nil registries snapshot empty.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	funcs := make(map[string]func() float64, len(r.funcs))
	for k, v := range r.funcs {
		funcs[k] = v
	}
	r.mu.Unlock()
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, fn := range funcs {
		s.Gauges[k] = fn()
	}
	for k, v := range hists {
		s.Histograms[k] = v.snapshot()
	}
	return s
}

// Merge folds other into s: counters and histogram buckets add, gauges
// sum (the cluster aggregate of a per-shard level is its total).
func (s *Snapshot) Merge(other Snapshot) {
	if s.Counters == nil {
		s.Counters = map[string]int64{}
	}
	if s.Gauges == nil {
		s.Gauges = map[string]float64{}
	}
	if s.Histograms == nil {
		s.Histograms = map[string]HistogramSnapshot{}
	}
	for k, v := range other.Counters {
		s.Counters[k] += v
	}
	for k, v := range other.Gauges {
		s.Gauges[k] += v
	}
	for k, v := range other.Histograms {
		h := s.Histograms[k]
		h.Merge(v)
		s.Histograms[k] = h
	}
}

// family splits a metric name into its Prometheus family (the part
// before any {label} suffix) and the label block (may be empty).
func family(name string) (fam, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// quantileLabels injects a quantile label into an existing label
// block: `{backend="a"}` + 0.99 -> `{backend="a",quantile="0.99"}`.
func quantileLabels(labels, q string) string {
	if labels == "" {
		return `{quantile="` + q + `"}`
	}
	return labels[:len(labels)-1] + `,quantile="` + q + `"}`
}

// exportQuantiles is the fixed set the text exposition publishes.
var exportQuantiles = []struct {
	label string
	q     float64
}{{"0.5", 0.5}, {"0.99", 0.99}, {"0.999", 0.999}}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format: counters and gauges directly, histograms as
// summaries (p50/p99/p999 plus _count and _sum). Families are emitted
// in sorted order so the output is diff-stable.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	type metric struct {
		name   string // full name with labels
		fam    string
		labels string
	}
	byFamily := map[string][]metric{}
	famType := map[string]string{}
	add := func(name, typ string) {
		fam, labels := family(name)
		byFamily[fam] = append(byFamily[fam], metric{name, fam, labels})
		famType[fam] = typ
	}
	for name := range s.Counters {
		add(name, "counter")
	}
	for name := range s.Gauges {
		add(name, "gauge")
	}
	for name := range s.Histograms {
		add(name, "summary")
	}
	fams := make([]string, 0, len(byFamily))
	for fam := range byFamily {
		fams = append(fams, fam)
	}
	sort.Strings(fams)
	for _, fam := range fams {
		ms := byFamily[fam]
		sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, famType[fam]); err != nil {
			return err
		}
		for _, m := range ms {
			switch famType[fam] {
			case "counter":
				if _, err := fmt.Fprintf(w, "%s %d\n", m.name, s.Counters[m.name]); err != nil {
					return err
				}
			case "gauge":
				if _, err := fmt.Fprintf(w, "%s %g\n", m.name, s.Gauges[m.name]); err != nil {
					return err
				}
			case "summary":
				h := s.Histograms[m.name]
				for _, eq := range exportQuantiles {
					v := h.Quantile(eq.q)
					if math.IsNaN(v) {
						v = 0
					}
					if _, err := fmt.Fprintf(w, "%s%s %g\n", m.fam, quantileLabels(m.labels, eq.label), v); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", m.fam, m.labels, h.Count); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", m.fam, m.labels, h.Sum); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
