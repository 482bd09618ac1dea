package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"polardraw"
)

// span is one timed call across a layer boundary. Spans of one stroke
// share its Stroke ID; spans serving many strokes at once (a tick's
// dispatch) carry -1.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Stroke int64  `json:"stroke"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the traced run and writes them out
// when it ends. A nil *tracer records nothing, so the untraced run
// pays one nil check per call site.
type tracer struct {
	start  time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
	// dispatching is the open router.dispatch span, the parent of the
	// journal appends the dispatch makes.
	dispatching atomic.Uint64
}

func newTracer() *tracer { return &tracer{start: time.Now(), spans: make([]span, 0, 1<<16)} }

// now is the trace clock: nanoseconds since the tracer started.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.start))
}

// newID reserves a span ID so children can name their parent before
// the parent span ends.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// reset drops the spans recorded so far.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerOf maps a span name to its layer: the part before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums each layer's self time: every span's duration minus
// the part of it its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[layerOf(s.Name)] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	return total + curHi - curLo
}

// timedJournal decorates the client's WAL: it times appends and
// checkpoints and counts the checkpoint bytes it stores.
type timedJournal struct {
	polardraw.Journal
	t        *tracer
	strokeOf func(epc string) int64

	mu       sync.Mutex
	bytes    int64
	appendNs int64
	ckptUS   []float64
}

func newTimedJournal(j polardraw.Journal, t *tracer, strokeOf func(string) int64) *timedJournal {
	return &timedJournal{Journal: j, t: t, strokeOf: strokeOf}
}

// reset zeroes the counters.
func (j *timedJournal) reset() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.bytes, j.appendNs, j.ckptUS = 0, 0, nil
}

func (j *timedJournal) Append(smp polardraw.Sample) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	start := j.t.now()
	i, err := j.Journal.Append(smp)
	end := j.t.now()
	j.appendNs += end - start
	j.t.add(span{Parent: j.t.dispatching.Load(), Name: "journal.append", Stroke: j.strokeOf(smp.EPC), Start: start, End: end})
	return i, err
}

func (j *timedJournal) SaveCheckpoint(epc string, covered int, state []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	start := j.t.now()
	err := j.Journal.SaveCheckpoint(epc, covered, state)
	end := j.t.now()
	j.bytes += int64(len(state))
	j.ckptUS = append(j.ckptUS, float64(end-start)/1e3)
	j.t.add(span{Name: "journal.checkpoint", Stroke: j.strokeOf(epc), Start: start, End: end})
	return err
}

// wireCounter counts the bytes and calls crossing the shard servers'
// accepted connections. Reads are what clients sent; writes are what
// the servers sent back (events, acks, replies).
type wireCounter struct {
	rxBytes, txBytes atomic.Int64 // server side: read, written
	reads, writes    atomic.Int64
}

// reset zeroes the counters.
func (w *wireCounter) reset() {
	if w == nil {
		return
	}
	w.rxBytes.Store(0)
	w.txBytes.Store(0)
	w.reads.Store(0)
	w.writes.Store(0)
}

type countingListener struct {
	net.Listener
	c *wireCounter
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *wireCounter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.reads.Add(1)
	c.c.rxBytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.writes.Add(1)
	c.c.txBytes.Add(int64(n))
	return n, err
}

// traceFile names the span dump of one traced run.
func traceFile(dir, workload string, seed uint64) string {
	return fmt.Sprintf("%s/trace-%s-seed%d.jsonl", dir, workload, seed)
}
