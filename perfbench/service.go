package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/fabric"
	pfmetrics "repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// cluster is an in-process pfserved fabric: a coordinator service in
// front of two single-worker services over loopback, with a fresh CAS.
type cluster struct {
	coord    *fabric.Coordinator
	creg     *pfmetrics.Registry
	wregs    []*pfmetrics.Registry
	workers  []*httptest.Server
	front    *httptest.Server
	dispatch *http.Transport // coordinator -> workers
	client   *http.Client    // clients -> coordinator
}

func startCluster(casDir string) (*cluster, error) {
	cl := &cluster{creg: pfmetrics.New()}
	cas, err := fabric.OpenCAS(casDir, cl.creg)
	if err != nil {
		return nil, err
	}
	urls := make([]string, 2)
	for i := range urls {
		reg := pfmetrics.New()
		ts := httptest.NewServer(server.New(server.Config{Workers: 1, Metrics: reg}).Handler())
		cl.wregs = append(cl.wregs, reg)
		cl.workers = append(cl.workers, ts)
		urls[i] = ts.URL
	}
	cl.dispatch = &http.Transport{MaxIdleConnsPerHost: 1}
	cl.coord, err = fabric.New(fabric.Options{
		Workers: urls, CAS: cas, PerWorker: 1, Metrics: cl.creg,
		Client: &http.Client{Transport: cl.dispatch},
	})
	if err != nil {
		cl.close()
		return nil, err
	}
	cl.front = httptest.NewServer(server.New(server.Config{Coordinator: cl.coord, CAS: cas, Metrics: cl.creg}).Handler())
	cl.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	return cl, nil
}

// close stops every server and waits for their handlers to return.
func (cl *cluster) close() {
	if cl.front != nil {
		cl.front.Close()
		cl.client.CloseIdleConnections()
	}
	for _, w := range cl.workers {
		w.Close()
	}
	if cl.dispatch != nil {
		cl.dispatch.CloseIdleConnections()
	}
}

// clients is the closed loop's client count.
const clients = 2

// runPlan is a seeded sequence of /v1/run bodies. repeatOf[i] is the
// index of the earlier request with the same body, or -1 for a cell
// that has not been asked for before.
type runPlan struct {
	bodies   [][]byte
	repeatOf []int
}

// makeRunPlan draws n requests in blocks of ten: after a first block of
// fresh cells, each block holds repeatsPerTen repeats, at seeded
// positions, of fresh cells sent at least one block earlier (so the
// first answer has almost always landed in the CAS), and fresh
// (benchmark, filter, seed) cells elsewhere. The fresh cells deal every
// (benchmark, filter) pair once, in seeded order, before dealing any
// again: a cell's cost depends mostly on the pair, so a run's few
// hundred fresh cells cost about the same whatever the seed. Fresh seeds
// derive from the workload seed, so runs with different seeds share no
// cells.
func makeRunPlan(seed uint64, n int, benches []string, b budget, repeatsPerTen int) runPlan {
	rng := xrand.New(seed ^ 0x5e7c1ce)
	p := runPlan{bodies: make([][]byte, n), repeatOf: make([]int, n)}
	var fresh, block, deck []int
	for i := 0; i < n; i++ {
		if i%10 == 0 {
			block = rng.Perm(10)
		}
		if mature := sort.SearchInts(fresh, i-i%10-10+1); i >= 10 && block[i%10] < repeatsPerTen && mature > 0 {
			j := fresh[rng.Intn(mature)]
			p.bodies[i], p.repeatOf[i] = p.bodies[j], j
			continue
		}
		if len(deck) == 0 {
			deck = rng.Perm(len(benches) * len(filterAxis))
		}
		pair := deck[0]
		deck = deck[1:]
		w := b.warmup
		body, err := json.Marshal(server.RunRequest{
			Benchmark:    benches[pair/len(filterAxis)],
			Filter:       filterAxis[pair%len(filterAxis)],
			Instructions: b.n,
			Warmup:       &w,
			Seed:         loopSeed(seed, i),
		})
		if err != nil {
			panic(err) // plain data
		}
		p.bodies[i], p.repeatOf[i] = body, -1
		fresh = append(fresh, i)
	}
	return p
}

// closedLoop is the closed-loop client: the request plan and what the
// answers have shown so far. It runs in chunks, between the other work
// of a run, so its samples spread over the whole measured time.
type closedLoop struct {
	cl    *cluster
	plan  runPlan
	l     *ledger
	tr    *recorder
	next  int                       // next plan index to send
	first map[int][sha256.Size]byte // fresh request index -> digest of its run
	out   svcOut
}

// svcOut is what the closed loop measured.
type svcOut struct {
	sent, completed, rejected int
	hitMS, missMS             []float64
	chunks                    []svcChunk
}

// svcChunk is one chunk of the closed loop.
type svcChunk struct {
	completed int
	latMS     []float64
	began     time.Time
	wall      time.Duration
}

func newClosedLoop(cl *cluster, plan runPlan, l *ledger, tr *recorder) *closedLoop {
	return &closedLoop{cl: cl, plan: plan, l: l, tr: tr, first: map[int][sha256.Size]byte{}}
}

// chunkFigures returns the medians over the chunks of the request rate
// and of the given latency quantiles, so a burst of interference on the
// machine moves a chunk, not the result. With a yardstick, each chunk's
// figures are scaled to its reference speed.
func (o svcOut) chunkFigures(y *yardstick, qs ...float64) (rps float64, lat []float64) {
	var rates []float64
	perQ := make([][]float64, len(qs))
	for _, c := range o.chunks {
		if len(c.latMS) == 0 {
			continue
		}
		f := 1.0
		if y != nil {
			f = y.scale(c.began, c.began.Add(c.wall))
		}
		rates = append(rates, float64(c.completed)/c.wall.Seconds()/f)
		for i, q := range qs {
			perQ[i] = append(perQ[i], quantile(append([]float64{}, c.latMS...), q)*f)
		}
	}
	for _, xs := range perQ {
		lat = append(lat, median(xs))
	}
	return median(rates), lat
}

// chunkLen is the closed loop's chunk: the unit its rate and latency
// quantiles are taken over.
const chunkLen = 250 * time.Millisecond

// run runs the closed loop for d, in chunks of chunkLen.
func (lp *closedLoop) run(d time.Duration) {
	for t := time.Duration(0); t < d; t += chunkLen {
		lp.runFor(min(chunkLen, d-t))
	}
}

// runFor sends the plan's next requests from two clients for d, each
// client sending its next request only when the previous one has
// answered. Every response is checked: a non-2xx status, an undecodable
// body, or a repeated cell whose run differs from the first answer is a
// failure.
func (lp *closedLoop) runFor(d time.Duration) {
	var (
		next     atomic.Int64
		mu       sync.Mutex // guards lp.out, lp.first, chunk and lp.l
		chunk    svcChunk
		wg       sync.WaitGroup
		start    = time.Now()
		deadline = start.Add(d)
	)
	next.Store(int64(lp.next))
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lp.l.fail(format, args...)
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= len(lp.plan.bodies) {
					return
				}
				var t0 int64
				if lp.tr != nil {
					t0 = lp.tr.now()
				}
				sent := time.Now()
				status, body, err := post(lp.cl.client, lp.cl.front.URL+"/v1/run", lp.plan.bodies[i])
				ms := float64(time.Since(sent)) / 1e6
				if lp.tr != nil {
					lp.tr.interval("server.run", i, t0, 1)
				}
				mu.Lock()
				lp.out.sent++
				chunk.latMS = append(chunk.latMS, ms)
				if status == http.StatusTooManyRequests {
					lp.out.rejected++
				}
				mu.Unlock()
				if err != nil || status != http.StatusOK {
					fail("run %d: status %d: %v %s", i, status, err, truncate(body))
					continue
				}
				var resp struct {
					Result struct {
						Source string          `json:"source"`
						Run    json.RawMessage `json:"run"`
					} `json:"result"`
				}
				var r stats.Run
				if err := json.Unmarshal(body, &resp); err != nil || json.Unmarshal(resp.Result.Run, &r) != nil {
					fail("run %d: bad body: %s", i, truncate(body))
					continue
				}
				key := i
				if lp.plan.repeatOf[i] >= 0 {
					key = lp.plan.repeatOf[i]
				}
				sum := sha256.Sum256(resp.Result.Run)
				mu.Lock()
				lp.out.completed++
				chunk.completed++
				if resp.Result.Source == "cas" {
					lp.out.hitMS = append(lp.out.hitMS, ms)
				} else {
					lp.out.missMS = append(lp.out.missMS, ms)
				}
				prev, seen := lp.first[key]
				if !seen {
					lp.first[key] = sum
				}
				mu.Unlock()
				if seen && prev != sum {
					fail("run %d: repeated cell returned a different run", i)
				}
			}
		}()
	}
	wg.Wait()
	chunk.began, chunk.wall = start, time.Since(start)
	lp.next = min(int(next.Load()), len(lp.plan.bodies))
	lp.out.chunks = append(lp.out.chunks, chunk)
}

// sweepResult is one streamed sweep's outcome.
type sweepResult struct {
	began       time.Time
	wall        time.Duration
	cells       int
	fingerprint string
}

// streamSweep sends one streamed /v1/sweep and reads it to the summary
// line. A non-2xx status, a failed cell, a missing summary, or a cell
// count that differs from the summary's is a failure.
func streamSweep(cl *cluster, body []byte, fail func(string, ...any)) sweepResult {
	start := time.Now()
	out := sweepResult{began: start}
	resp, err := cl.client.Post(cl.front.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		fail("sweep: %v", err)
		return out
	}
	defer func() { _ = resp.Body.Close() }() // fully read below
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		fail("sweep: status %d: %s", resp.StatusCode, truncate(b))
		return out
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var summary *server.SweepResponse
	for sc.Scan() {
		var line server.StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			fail("sweep: bad line: %v", err)
			continue
		}
		switch {
		case line.Type == "result" && line.Result != nil:
			out.cells++
			if line.Result.Error != "" || line.Result.Run == nil {
				fail("sweep: cell %s: %s", line.Result.Name, line.Result.Error)
			}
		case line.Type == "summary" && line.Summary != nil:
			summary = line.Summary
			if line.Error != "" {
				fail("sweep: %s", line.Error)
			}
		}
	}
	out.wall = time.Since(start)
	if err := sc.Err(); err != nil {
		fail("sweep: read: %v", err)
	}
	if summary == nil {
		fail("sweep: no summary line")
		return out
	}
	if summary.Errors != 0 || summary.Unique != out.cells {
		fail("sweep: %d errors, %d cells streamed, %d unique", summary.Errors, out.cells, summary.Unique)
	}
	out.fingerprint = summary.Fingerprint
	return out
}

func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer func() { _ = resp.Body.Close() }() // fully read below
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func truncate(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}

// fabricCells turns matrix cells into fabric cells keyed the way the
// service keys them, under the given run parameters.
func fabricCells(cells []cell, p fabric.Params) []fabric.Cell {
	ep := experiments.Params{Instructions: p.Instructions, Warmup: p.Warmup, Seed: p.Seed}
	out := make([]fabric.Cell, len(cells))
	for i, c := range cells {
		cfg := c.cfg
		cfg.Seed = p.Seed
		out[i] = fabric.Cell{Key: ep.CacheKey(c.bench, cfg), Bench: c.bench, Config: cfg, Generator: c.axis}
	}
	return out
}

// coordinatorRun calls Coordinator.Run directly and fails on any cell error.
func coordinatorRun(coord *fabric.Coordinator, p fabric.Params, cells []fabric.Cell, fail func(string, ...any)) ([]fabric.Result, time.Duration) {
	var (
		mu  sync.Mutex
		out []fabric.Result
	)
	start := time.Now()
	err := coord.Run(context.Background(), p, cells, sched.ConstCost(1), func(r fabric.Result) {
		mu.Lock()
		defer mu.Unlock()
		out = append(out, r)
	})
	wall := time.Since(start)
	if err != nil {
		fail("coordinator run: %v", err)
	}
	for _, r := range out {
		if r.Err != nil {
			fail("coordinator run: %s: %v", r.Cell.Bench, r.Err)
		}
	}
	if len(out) != len(cells) {
		fail("coordinator run: %d results for %d cells", len(out), len(cells))
	}
	return out, wall
}
