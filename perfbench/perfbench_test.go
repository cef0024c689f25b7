package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/frontend"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tracefile"
	"repro/internal/workload"
)

var (
	fixtureOnce sync.Once
	fixtureDir  string
	fixtureErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if fixtureDir != "" {
		_ = os.RemoveAll(fixtureDir) // scratch only
	}
	os.Exit(code)
}

// registerTestFixture registers the ChampSim fixture as traceBench once
// per process; the PFTC file must outlive every test that replays it.
func registerTestFixture(t *testing.T) {
	t.Helper()
	fixtureOnce.Do(func() {
		if fixtureDir, fixtureErr = os.MkdirTemp("", "perfbench-"); fixtureErr == nil {
			fixtureErr = registerFixture(filepath.Join("..", fixturePath), fixtureDir, setupTraceName(0))
		}
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
}

func runJSON(t *testing.T, r stats.Run) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// wrapperCells covers every registered filter on the paper's machine and
// every registered instruction prefetcher, on a synthetic benchmark and
// on the converted trace. The static filter is left out: it runs only
// through sim.RunStatic, which builds its own filters.
func wrapperCells() []cell {
	var cells []cell
	add := func(axis, f string, cfg config.Config) {
		for _, bench := range []string{"mcf", traceBench} {
			cfg.Seed = 3
			cells = append(cells, cell{id: len(cells), bench: bench, axis: axis, filter: f, cfg: cfg})
		}
	}
	for _, f := range filter.Sweepable() {
		add(axisPaper, f, config.Default().WithFilter(config.FilterKind(f)))
	}
	for _, ip := range frontend.Kinds() {
		for _, f := range []string{"none", "pa", "tournament"} {
			add(ip, f, config.Default().WithIPrefetch(config.IPrefetchKind(ip)).WithFilter(config.FilterKind(f)))
		}
	}
	return cells
}

// TestWrappedRunsMatchBareRuns checks that the traced path — source and
// filter wrapped in timing decorators, a metrics registry attached —
// simulates exactly what a bare sim.Run does.
func TestWrappedRunsMatchBareRuns(t *testing.T) {
	registerTestFixture(t)
	b := budget{n: 3_000, warmup: 1_500}
	tr := newRecorder()
	cells := wrapperCells()
	bare := make([]cellOut, len(cells))
	wrapped := make([]cellOut, len(cells))
	for i, c := range cells {
		bare[i].run, bare[i].err = sim.Run(sim.Options{Benchmark: c.bench, Config: c.cfg, MaxInstructions: b.n, Warmup: b.warmup})
		var obs *cellObs
		wrapped[i].run, obs, wrapped[i].err = simulateTraced(c, b, tr)
		if bare[i].err != nil || wrapped[i].err != nil {
			t.Errorf("%s: bare error %v, wrapped error %v", c.label(), bare[i].err, wrapped[i].err)
			continue
		}
		if !bytes.Equal(runJSON(t, bare[i].run), runJSON(t, wrapped[i].run)) {
			t.Errorf("%s: wrapped run differs from the bare run", c.label())
		}
		if obs.sourceCount < b.total() {
			t.Errorf("%s: the timed source delivered %d records for %d instructions", c.label(), obs.sourceCount, b.total())
		}
	}
	if got, want := digest(cells, wrapped), digest(cells, bare); got != want {
		t.Errorf("digest of traced runs %s, of bare runs %s", got, want)
	}
}

// plainFilter wraps a filter without forwarding its optional interfaces.
type plainFilter struct{ core.Filter }

// TestPlainFilterWrapperChangesResults shows why timedFilter forwards
// ResetStats: a wrapper that hides it skips the warmup reset, so the
// traced run would be a different program.
func TestPlainFilterWrapperChangesResults(t *testing.T) {
	b := budget{n: 3_000, warmup: 1_500}
	differs := 0
	for _, f := range filter.Sweepable() {
		cfg := config.Default().WithFilter(config.FilterKind(f))
		inner, err := filter.New(cfg.Filter)
		if err != nil {
			continue
		}
		bare, err := sim.Run(sim.Options{Benchmark: "mcf", Config: cfg, MaxInstructions: b.n, Warmup: b.warmup})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := sim.Run(sim.Options{Benchmark: "mcf", Config: cfg, Filter: plainFilter{inner}, MaxInstructions: b.n, Warmup: b.warmup})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(runJSON(t, bare), runJSON(t, plain)) {
			differs++
		}
	}
	if differs == 0 {
		t.Fatal("no filter's results depend on the forwarded ResetStats; the wrapper test proves nothing")
	}
}

// TestReplayIssuesRecordedAccesses checks that the hier replay loops
// issue exactly the recorded accesses and fetch blocks.
func TestReplayIssuesRecordedAccesses(t *testing.T) {
	s, err := recordStreams([]string{"mcf", "gcc", "gzip"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.data) == 0 || len(s.fetches) == 0 {
		t.Fatal("empty streams")
	}
	h, err := newReplayHier(replayConfig())
	if err != nil {
		t.Fatal(err)
	}
	rd := replayData(h, s.data)
	if rd.calls != len(s.data) || h.Traffic.DemandAccesses != uint64(len(s.data)) {
		t.Errorf("data replay: %d calls, %d demand accesses, %d recorded", rd.calls, h.Traffic.DemandAccesses, len(s.data))
	}
	hi, err := newReplayHier(replayConfig())
	if err != nil {
		t.Fatal(err)
	}
	rf := replayFetch(hi, s.fetches)
	if rf.calls != len(s.fetches) || hi.FetchBlocks != uint64(len(s.fetches)) {
		t.Errorf("fetch replay: %d calls, %d fetch blocks, %d recorded", rf.calls, hi.FetchBlocks, len(s.fetches))
	}
	if rf.cycles < uint64(len(s.fetches)) || rf.idleCycles > rf.cycles {
		t.Errorf("fetch replay: %d cycles, %d idle, for %d fetches", rf.cycles, rf.idleCycles, len(s.fetches))
	}
}

// TestRunPlanRepeatsMatureCells checks the closed loop's request mix:
// seven repeats in every block of ten after the first, each repeating a
// fresh cell sent at least ten requests earlier, and fresh cells that
// deal every (benchmark, filter) pair once before dealing any again.
func TestRunPlanRepeatsMatureCells(t *testing.T) {
	p := makeRunPlan(5, 500, benchmarks(), budget{n: 100, warmup: 10}, repeatsPerTen)
	for block := 0; block < 50; block++ {
		repeats := 0
		for i := block * 10; i < block*10+10; i++ {
			j := p.repeatOf[i]
			if j < 0 {
				continue
			}
			repeats++
			if j > block*10-10 || p.repeatOf[j] != -1 || !bytes.Equal(p.bodies[i], p.bodies[j]) {
				t.Fatalf("request %d repeats %d", i, j)
			}
		}
		if want := map[bool]int{true: 0, false: repeatsPerTen}[block == 0]; repeats != want {
			t.Errorf("block %d: %d repeats, want %d", block, repeats, want)
		}
	}
	seen := map[string]bool{}
	var pairs []string
	for i, b := range p.bodies {
		if p.repeatOf[i] < 0 {
			if seen[string(b)] {
				t.Fatalf("fresh request %d repeats an earlier cell", i)
			}
			seen[string(b)] = true
			var req server.RunRequest
			if err := json.Unmarshal(b, &req); err != nil {
				t.Fatal(err)
			}
			pairs = append(pairs, req.Benchmark+"|"+req.Filter)
		}
	}
	deck := len(benchmarks()) * len(filterAxis)
	for start := 0; start+deck <= len(pairs); start += deck {
		dealt := map[string]bool{}
		for _, pair := range pairs[start : start+deck] {
			dealt[pair] = true
		}
		if len(dealt) != deck {
			t.Errorf("fresh cells %d to %d deal %d of the %d pairs", start, start+deck-1, len(dealt), deck)
		}
	}
}

// TestServiceSeedsAreDisjoint checks that no fresh closed-loop cell
// shares a seed with a streamed sweep or the traced run's probe, so a
// cell the plan marks fresh is never answered from another's CAS entry.
func TestServiceSeedsAreDisjoint(t *testing.T) {
	for _, seed := range []uint64{0, 1, 9, 10, 99_999, 1 << 31, 1<<32 - 1} {
		taken := map[uint64]string{probeSeed(seed): "probe"}
		for _, s := range sweepSeeds {
			taken[s] = "sweep"
		}
		var seeds []uint64
		p := makeRunPlan(seed, 1000, benchmarks(), budget{n: 100, warmup: 10}, repeatsPerTen)
		for i, body := range p.bodies {
			var req server.RunRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatal(err)
			}
			if p.repeatOf[i] < 0 {
				seeds = append(seeds, req.Seed)
			}
		}
		seeds = append(seeds, loopSeed(seed, 0), loopSeed(seed, planSize-1))
		for _, s := range seeds {
			if what, ok := taken[s]; ok && what != "loop" {
				t.Errorf("run seed %d: loop seed %d is also a %s seed", seed, s, what)
			}
			taken[s] = "loop"
		}
	}
}

// TestEverySetupRegistersAfresh checks that each set-up registers the
// converted fixture under a name of its own, so every timed set-up pays
// for a verified registration rather than the no-op of a repeat.
func TestEverySetupRegistersAfresh(t *testing.T) {
	dir := t.TempDir()
	for n := 1; n <= 2; n++ {
		name := setupTraceName(n)
		if _, ok := workload.ByName(tracefile.BenchPrefix + name); ok {
			t.Fatalf("%s registered before its set-up", name)
		}
		sub := filepath.Join(dir, name)
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := registerFixture(filepath.Join("..", fixturePath), sub, name); err != nil {
			t.Fatal(err)
		}
		if _, ok := workload.ByName(tracefile.BenchPrefix + name); !ok {
			t.Errorf("set-up %d did not register %s", n, name)
		}
	}
	if setupTraceName(0) != "sample" || tracefile.BenchPrefix+setupTraceName(0) != traceBench {
		t.Errorf("set-up 0 registers %s, the matrix runs %s", setupTraceName(0), traceBench)
	}
}

// TestCheckCellFlagsViolations feeds the invariant check broken runs.
func TestCheckCellFlagsViolations(t *testing.T) {
	c := cell{bench: "mcf", axis: axisPaper, filter: "pa", cfg: config.Default()}
	b := budget{n: 1000, warmup: 0}
	good := stats.Run{Instructions: 1000, Cycles: 500, FilterQueries: 10, FilterRejected: 5,
		Prefetches: stats.Prefetches{Issued: 10, Good: 6, Bad: 4}}
	cases := map[string]func(*stats.Run){
		"ok":         func(*stats.Run) {},
		"budget":     func(r *stats.Run) { r.Instructions = 999 },
		"classified": func(r *stats.Run) { r.Prefetches.Good = 7 },
		"rejected":   func(r *stats.Run) { r.FilterRejected = 11 },
		"ipc":        func(r *stats.Run) { r.Cycles = 100 },
		"iside": func(r *stats.Run) {
			r.Frontend = &stats.Frontend{Prefetches: stats.Prefetches{Issued: 1, Good: 1, Bad: 1}}
		},
	}
	for name, mutate := range cases {
		r := good
		mutate(&r)
		var got []string
		checkCell(c, b, cellOut{run: r}, func(f string, a ...any) { got = append(got, f) })
		if (name == "ok") != (len(got) == 0) {
			t.Errorf("%s: %d violations reported", name, len(got))
		}
	}
}

// TestYardstickScale checks the scale factor: the median burst of the
// interval, widened to minWindow bursts when it holds fewer, times the
// share of processor time not stolen across them.
func TestYardstickScale(t *testing.T) {
	t0 := time.Unix(1_000_000, 0)
	at := func(i int) time.Time { return t0.Add(time.Duration(i) * yardstickPeriod) }
	y := &yardstick{}
	if f := y.scale(t0, at(5)); f != 1 {
		t.Errorf("no bursts: factor %v, want 1", f)
	}
	// Bursts 0-29 take twice the reference time, 30-59 the reference
	// time; from burst 40 on, a quarter of the processor time is stolen.
	var steal, total uint64
	for i := 0; i < 60; i++ {
		us := 2 * refBurstUS
		if i >= 30 {
			us = refBurstUS
		}
		total += 100
		if i >= 40 {
			steal += 25
		}
		y.samples = append(y.samples, speedSample{at: at(i), us: us, steal: steal, total: total})
	}
	for _, tc := range []struct {
		name     string
		from, to int
		want     float64
	}{
		{"slow spell", 2, 20, 0.5},
		{"short interval widened", 10, 10, 0.5},
		{"widened at the start", 0, 0, 0.5},
		{"reference speed", 31, 39, 1},
		{"stolen time", 45, 59, 0.75},
	} {
		if got := y.scale(at(tc.from), at(tc.to)); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: factor %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestYardstickSamples runs the real sampler briefly: it must record
// bursts and stop when closed.
func TestYardstickSamples(t *testing.T) {
	y := startYardstick()
	time.Sleep(10 * yardstickPeriod)
	y.close()
	n := len(y.burstUS())
	if n == 0 {
		t.Fatal("no bursts recorded")
	}
	time.Sleep(3 * yardstickPeriod)
	if len(y.burstUS()) != n {
		t.Error("bursts recorded after close")
	}
	if f := y.scale(time.Now().Add(-time.Second), time.Now()); f <= 0 || math.IsInf(f, 0) || math.IsNaN(f) {
		t.Errorf("factor %v", f)
	}
}

// TestBenchmarkJSONMatchesMetricTables keeps BENCHMARK.json and the
// metrics the benchmark prints in step.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); !equalStrings(got, want) {
		t.Errorf("workloads %v, benchmark runs %v", got, want)
	}
	for _, tc := range []struct {
		list []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(tc.list) != len(tc.defs) {
			t.Errorf("%d metrics in BENCHMARK.json, %d printed", len(tc.list), len(tc.defs))
			continue
		}
		for i, m := range tc.list {
			if d := tc.defs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.dir {
				t.Errorf("BENCHMARK.json %+v, printed %+v", m, d)
			}
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BenchmarkCellBudget compares the host profile and the IPC of matrix
// cells at the matrix workloads' budget with those at a shorter warmup
// and at 300k instructions after 100k warmup, on the same cells: the
// paper-dside and iside-frontend axes over four paper benchmarks, one
// cell at a time. Per budget it reports simulated MIPS (warmup included,
// as sim_mips), the share of cell time spent building the machine (a
// one-instruction sim.Run per cell, as sim.construct_us), heap allocated
// per cell, and the IPC geomean:
//
//	cd perfbench && go test -run '^$' -bench CellBudget -benchtime 1x
func BenchmarkCellBudget(b *testing.B) {
	benches := []string{"em3d", "gcc", "mcf", "wave5"}
	for _, m := range []struct {
		name  string
		cells []cell
	}{{"dside", dsideCells(benches, defaultSeed)}, {"iside", isideCells(benches, defaultSeed)}} {
		for _, bud := range []budget{{n: 40_000, warmup: 20_000}, matrixBudget, {n: 300_000, warmup: 100_000}} {
			b.Run(fmt.Sprintf("%s/%dk+%dk", m.name, bud.n/1000, bud.warmup/1000), func(b *testing.B) {
				var cellNS, constructNS, logIPC float64
				var allocs uint64
				for i := 0; i < b.N; i++ {
					for _, c := range m.cells {
						start := time.Now()
						if _, err := sim.Run(sim.Options{Benchmark: c.bench, Config: c.cfg, MaxInstructions: 1, Warmup: -1}); err != nil {
							b.Fatal(err)
						}
						constructNS += float64(time.Since(start))
						a0 := heapAllocs()
						start = time.Now()
						r, err := sim.Run(sim.Options{Benchmark: c.bench, Config: c.cfg, MaxInstructions: bud.n, Warmup: bud.warmup})
						cellNS += float64(time.Since(start))
						allocs += heapAllocs() - a0
						if err != nil {
							b.Fatal(err)
						}
						logIPC += math.Log(r.IPC())
					}
				}
				n := float64(b.N * len(m.cells))
				b.ReportMetric(n*float64(bud.total())/cellNS*1e3, "sim_MIPS")
				b.ReportMetric(100*constructNS/cellNS, "construct_%")
				b.ReportMetric(float64(allocs)/n/1024, "KiB/cell")
				b.ReportMetric(math.Exp(logIPC/n), "ipc_geomean")
			})
		}
	}
}
