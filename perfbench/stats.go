package main

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

var errFewSamples = errors.New("too few samples for percentile")

// percentile returns the q-quantile (0 < q < 1) of xs by nearest rank.
// It refuses a percentile with fewer than minTail samples beyond it:
// a p99 needs at least 1000 samples.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if float64(n)*(1-q) < minTail-1e-9 {
		return 0, fmt.Errorf("%w: p%g of %d samples", errFewSamples, q*100, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set in MiB since start or
// since the last resetPeakRSS.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// resetPeakRSS returns freed memory to the OS and restarts the peak
// resident set from the current one (Linux clear_refs 5), so the peak
// that follows is the timed run's rather than input synthesis's.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// runtimeSample is a snapshot of the Go runtime's GC accounting.
type runtimeSample struct {
	pauses    *metrics.Float64Histogram
	gcCPU     float64
	totalCPU  float64
	available bool
}

var runtimeMetricNames = []string{
	"/sched/pauses/total/gc:seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	if ms[0].Value.Kind() != metrics.KindFloat64Histogram {
		return runtimeSample{}
	}
	return runtimeSample{
		pauses:    ms[0].Value.Float64Histogram(),
		gcCPU:     ms[1].Value.Float64(),
		totalCPU:  ms[2].Value.Float64(),
		available: true,
	}
}

// gcBetween summarizes GC between two snapshots: the stop-the-world
// pauses (ms, one value per pause at its bucket's upper bound) and the
// share of CPU time the collector used.
func gcBetween(a, b runtimeSample) (pausesMS []float64, cpuFraction float64) {
	if !a.available || !b.available {
		return nil, 0
	}
	for i, c := range b.pauses.Counts {
		d := c - a.pauses.Counts[i]
		hi := b.pauses.Buckets[i+1]
		if math.IsInf(hi, 1) {
			hi = b.pauses.Buckets[i]
		}
		for ; d > 0; d-- {
			pausesMS = append(pausesMS, hi*1e3)
		}
	}
	if tot := b.totalCPU - a.totalCPU; tot > 0 {
		cpuFraction = (b.gcCPU - a.gcCPU) / tot
	}
	return pausesMS, cpuFraction
}

// intervalLen splits a run into the slices its headline latencies and
// CPU cost are taken from: short enough that a slice in which another
// guest held this machine's CPUs can be told from one in which it did
// not, long enough for the host's steal counter (100 ticks a second
// per CPU) to resolve a few percent.
const intervalLen = 250 * time.Millisecond

// minIntervals is the fewest intervals a headline statistic pools.
const minIntervals = 5

// quietest picks the intervals the headline statistics pool: the
// third of the steady intervals in which the hypervisor stole the
// smallest share of this machine's busy CPU time. Intervals before
// first (pens still starting) and the last one (pens finishing, the
// drain) are not steady. On a shared host, CPU time taken by other
// guests shows up here as latency; pooling the quietest third measures
// the tier rather than its neighbours. Ties (on a host without steal,
// every interval) are broken in bit-reversed order of the interval's
// place in the run, so tied intervals are kept spread over the whole
// run and a cost that grows over the run still shows. The run's steal
// is printed with it. It returns nil, meaning every interval, when the
// run is too short to choose.
func quietest(steal []float64, first int) map[int]bool {
	if len(steal)-first-1 < 3*minIntervals {
		return nil
	}
	idx := make([]int, 0, len(steal))
	for i := first; i < len(steal)-1; i++ {
		idx = append(idx, i)
	}
	spread := func(i int) uint32 { return bits.Reverse32(uint32(i - first)) }
	sort.Slice(idx, func(a, b int) bool {
		if sa, sb := steal[idx[a]], steal[idx[b]]; sa != sb {
			return sa < sb
		}
		return spread(idx[a]) < spread(idx[b])
	})
	keep := make(map[int]bool)
	for _, i := range idx[:(len(idx)+2)/3] {
		keep[i] = true
	}
	return keep
}

// series holds one value per event, grouped by the interval of the
// event's due time.
type series [][]float64

func (s *series) add(due time.Duration, v float64) {
	i := max(int(due/intervalLen), 0)
	for len(*s) <= i {
		*s = append(*s, nil)
	}
	(*s)[i] = append((*s)[i], v)
}

// pooled gathers the values of the intervals in keep (every interval
// when keep is nil).
func (s series) pooled(keep map[int]bool) []float64 {
	var out []float64
	for i, xs := range s {
		if keep == nil || keep[i] {
			out = append(out, xs...)
		}
	}
	return out
}

// hostCPU reads the machine-wide CPU tick counters: the busy ticks
// (everything but idle and iowait, steal included) and the ticks the
// hypervisor stole. Both are zero where /proc/stat is missing.
func hostCPU() (busy, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal
	for i, v := range f[1:9] {
		x, _ := strconv.ParseFloat(v, 64)
		if i != 3 && i != 4 {
			busy += x
		}
		if i == 7 {
			steal = x
		}
	}
	return busy, steal
}
