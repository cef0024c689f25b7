package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/isa"
	pfmetrics "repro/internal/metrics"
)

// span is one timed call into a layer. An interval span covers
// [start, end) and busy = end - start; an aggregate span sums many short
// calls (the filter's Allow and Train), so busy is their summed time and
// count their number. parent indexes the enclosing span (-1 for a root).
type span struct {
	name       string
	cell       int
	parent     int
	start, end int64 // ns since the recorder's epoch
	busy       int64
	count      int64
}

// recorder keeps the spans of a traced run in memory until the run ends.
// A nil *recorder means tracing is off.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// cell starts a per-cell span buffer; one goroutine owns it until commit.
func (r *recorder) cell(id int) *cellTrace { return &cellTrace{r: r, id: id} }

// commit moves a cell's spans into the recorder, rebasing parent links.
func (r *recorder) commit(ct *cellTrace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	base := len(r.spans)
	for _, s := range ct.spans {
		if s.parent >= 0 {
			s.parent += base
		}
		r.spans = append(r.spans, s)
	}
}

// interval records a finished root span that covers [start, now).
func (r *recorder) interval(name string, cell int, start int64, count int64) {
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, cell: cell, parent: -1, start: start, end: end, busy: end - start, count: count})
}

// layerTotal sums a layer's self time (its busy time minus the busy
// time of its direct children) and its counts, over every span so named.
func (r *recorder) layerTotal(name string) (selfNS, count int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.busy
		}
	}
	for i, s := range r.spans {
		if s.name == name {
			selfNS += s.busy - child[i]
			count += s.count
		}
	}
	return selfNS, count
}

// write stores every span as one JSON line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err = enc.Encode(struct {
			Name   string `json:"name"`
			Cell   int    `json:"cell"`
			Parent int    `json:"parent"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Busy   int64  `json:"busy_ns"`
			Count  int64  `json:"count"`
		}{s.name, s.cell, s.parent, s.start, s.end, s.busy, s.count}); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err != nil {
		_ = f.Close() // the encode error takes precedence
		return err
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error takes precedence
		return err
	}
	return f.Close()
}

// cellTrace buffers one cell's spans without locking.
type cellTrace struct {
	r     *recorder
	id    int
	spans []span
}

// open starts an interval span under parent (-1 for a root) and returns
// its index.
func (ct *cellTrace) open(name string, parent int) int {
	ct.spans = append(ct.spans, span{name: name, cell: ct.id, parent: parent, start: ct.r.now()})
	return len(ct.spans) - 1
}

// close ends the span at index i.
func (ct *cellTrace) close(i int, count int64) {
	s := &ct.spans[i]
	s.end = ct.r.now()
	s.busy = s.end - s.start
	s.count = count
}

// aggregate records summed calls as one span under parent.
func (ct *cellTrace) aggregate(name string, parent int, t callTotal) {
	p := ct.spans[parent]
	ct.spans = append(ct.spans, span{name: name, cell: ct.id, parent: parent, start: p.start, end: p.end, busy: t.ns, count: t.n})
}

// timedSource decorates an isa.Source: it pulls records from the inner
// source in batches, timing each batch as one span, and serves them one
// at a time. The record sequence is unchanged.
type timedSource struct {
	src     isa.Source
	ct      *cellTrace
	name    string
	parent  int
	buf     [sourceBatch]isa.Record
	pos, n  int
	done    bool
	busy    int64
	records int64
}

const sourceBatch = 1024

func newTimedSource(src isa.Source, ct *cellTrace, name string, parent int) *timedSource {
	return &timedSource{src: src, ct: ct, name: name, parent: parent}
}

// Next implements isa.Source.
func (s *timedSource) Next() (isa.Record, bool) {
	if s.pos == s.n {
		if s.done || !s.fill() {
			return isa.Record{}, false
		}
	}
	r := s.buf[s.pos]
	s.pos++
	return r, true
}

func (s *timedSource) fill() bool {
	i := s.ct.open(s.name, s.parent)
	n := 0
	for n < sourceBatch {
		r, ok := s.src.Next()
		if !ok {
			s.done = true
			break
		}
		s.buf[n] = r
		n++
	}
	s.ct.close(i, int64(n))
	s.busy += s.ct.spans[i].busy
	s.records += int64(n)
	s.pos, s.n = 0, n
	return n > 0
}

// timedFilter decorates a core.Filter with per-call timing of Allow and
// Train. It forwards the optional interfaces the simulator type-asserts
// (ResetStats at the warmup boundary, core.MetricsDumper at the end of
// a run), so a wrapped filter behaves exactly like the bare one.
type timedFilter struct {
	f            core.Filter
	allow, train callTotal
}

// callTotal sums the duration of repeated calls.
type callTotal struct{ ns, n int64 }

func newTimedFilter(f core.Filter) *timedFilter { return &timedFilter{f: f} }

func (t *timedFilter) Allow(r core.Request) bool {
	start := time.Now()
	ok := t.f.Allow(r)
	t.allow.ns += int64(time.Since(start))
	t.allow.n++
	return ok
}

func (t *timedFilter) Train(fb core.Feedback) {
	start := time.Now()
	t.f.Train(fb)
	t.train.ns += int64(time.Since(start))
	t.train.n++
}

func (t *timedFilter) Name() string      { return t.f.Name() }
func (t *timedFilter) Stats() core.Stats { return t.f.Stats() }

// ResetStats forwards the warmup-boundary reset when the inner filter has one.
func (t *timedFilter) ResetStats() {
	if r, ok := t.f.(interface{ ResetStats() }); ok {
		r.ResetStats()
	}
}

// DumpMetrics forwards to the inner filter when it exports metrics.
func (t *timedFilter) DumpMetrics(reg *pfmetrics.Registry, prefix string) {
	if d, ok := t.f.(core.MetricsDumper); ok {
		d.DumpMetrics(reg, prefix)
	}
}

// record adds the filter's summed call time as two aggregate spans.
func (t *timedFilter) record(ct *cellTrace, parent int) {
	ct.aggregate("filter.allow", parent, t.allow)
	ct.aggregate("filter.train", parent, t.train)
}
