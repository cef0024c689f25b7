package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
	pfmetrics "repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/tracefile"
	"repro/internal/workload"
)

// workloadDef is one benchmark workload. Every workload runs the same
// two phases with its own inputs: a matrix phase (cells simulated on the
// sweep harness) and a service phase (a closed loop of /v1/run requests
// and streamed /v1/sweep requests against an in-process fabric).
type workloadDef struct {
	name string
	// budget is the instruction budget of the workload's matrix cells
	// and streamed sweep cells. The closed loop's cells run at
	// serviceBudget on every workload.
	budget budget
	// cells builds the matrix from the seed.
	cells func(seed uint64) []cell
	// loopTime is how long the closed loop runs after each matrix
	// sweep; it sets the split of the measured time between the two.
	loopTime time.Duration
	// sweep is the body of streamed sweep k (fixed seeds, so the
	// fingerprints can be pinned).
	sweep func(k int) server.SweepRequest
	// probe selects the cells a traced run re-runs through
	// Coordinator.Run (the cells of the streamed sweeps).
	probe func(c cell) bool
	// minRuns is the fewest /v1/run requests the closed loop sends.
	minRuns int
	// streams is how many streamed sweeps a run sends, the first of
	// sweepSeeds.
	streams int
}

// traceBench is the checked-in ChampSim fixture's benchmark name once the
// set-up has converted and registered it.
const traceBench = tracefile.BenchPrefix + "sample"

// fixturePath is the ChampSim fixture, relative to the checkout root.
var fixturePath = filepath.Join("internal", "tracefile", "testdata", "sample.champsim.gz")

func benchmarks() []string { return append(workload.PaperNames(), traceBench) }

// sweepSeeds are the seeds of the service phase's streamed sweeps,
// probeSeed that of a traced run's direct Coordinator.Run, and loopSeed
// that of the closed loop's i-th request when it is fresh. For every run
// seed below 2^32 the three sets are disjoint (loop seeds are at least
// 2^32, or at most planSize for seed 0), so no cell of one is answered
// from the memo or CAS entry of another.
var sweepSeeds = []uint64{900_001, 900_002, 900_003, 900_004, 900_005}

func probeSeed(seed uint64) uint64 { return 950_000 + seed }

func loopSeed(seed uint64, i int) uint64 { return seed<<32 | uint64(i+1) }

// matrixBudget is the instruction budget of the matrix workloads. The
// warmup, not the measured window, decides whether the caches and history
// tables are filled: on the paper-dside cells of em3d, gcc, mcf and wave5
// (BenchmarkCellBudget) the IPC geomean is 0.64 after a 20k warmup, 1.19
// after 100k and 1.50 after 200k, against 1.47 at 300k+100k. A short
// measured window keeps a sweep of the 473-cell matrix to a few seconds.
var matrixBudget = budget{n: 40_000, warmup: 200_000}

// serviceBudget is the budget of service-fabric's cells and of the
// closed loop's cells on every workload. The cells are small so that the
// service layers, not the simulator, set the loop's latency. At the
// matrix budget a fresh cell holds a client for tens of milliseconds, a
// hit's latency depends on whether the other client is simulating, and
// the loop's quantiles moved by a quarter between runs of different seeds.
var serviceBudget = budget{n: 4_000, warmup: 2_000}

// sweepBenches are the benchmarks of the matrix workloads' streamed sweeps.
var sweepBenches = []string{"mcf", "gcc", "em3d"}

var workloads = []workloadDef{
	{
		name:     "paper-dside",
		budget:   matrixBudget,
		cells:    func(seed uint64) []cell { return dsideCells(benchmarks(), seed) },
		loopTime: 2 * time.Second,
		sweep: func(int) server.SweepRequest {
			return server.SweepRequest{Benchmarks: sweepBenches, Generators: []string{"all"}, Filters: filterAxis}
		},
		probe: func(c cell) bool {
			return inList(c.bench, sweepBenches) && c.axis != axisOff && c.axis != axisPaper
		},
		minRuns: 40,
		streams: 3,
	},
	{
		name:     "iside-frontend",
		budget:   matrixBudget,
		cells:    func(seed uint64) []cell { return isideCells(benchmarks(), seed) },
		loopTime: 2 * time.Second,
		sweep: func(int) server.SweepRequest {
			return server.SweepRequest{Benchmarks: sweepBenches, IPrefetch: []string{"all"}, Filters: filterAxis}
		},
		probe: func(c cell) bool {
			return inList(c.bench, sweepBenches) && inList(c.axis, iprefetchAxis)
		},
		minRuns: 40,
		streams: 3,
	},
	{
		// The matrix phase runs the streamed sweep's own cells (the
		// standard matrix of the paper's benchmarks and the trace at
		// sweep 0's seed) directly, so the simulator's share of a served
		// sweep shows beside the service's.
		name:   "service-fabric",
		budget: serviceBudget,
		cells: func(uint64) []cell {
			p := experiments.Params{Benchmarks: benchmarks()}
			return standardCells(p.StandardMatrix(), sweepSeeds[0])
		},
		loopTime: 1500 * time.Millisecond,
		sweep: func(int) server.SweepRequest {
			return server.SweepRequest{Standard: true, Benchmarks: workload.PaperNames(), Traces: []string{"sample"}}
		},
		probe:   func(cell) bool { return true },
		minRuns: 200,
		streams: 5,
	},
}

func inList(s string, list []string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// env is the run's checkout and scratch directory.
type env struct {
	root    string
	seed    uint64
	seconds int
	tmp     string
}

func newEnv(root string, seed uint64, seconds int) (*env, error) {
	if _, err := os.Stat(filepath.Join(root, fixturePath)); err != nil {
		return nil, fmt.Errorf("not a checkout of the repository: %w", err)
	}
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	return &env{root: root, seed: seed, seconds: seconds, tmp: tmp}, nil
}

func (e *env) close() { _ = os.RemoveAll(e.tmp) } // scratch only

// state is what one set-up builds.
type state struct {
	cells    []cell
	plan     runPlan
	sweeps   [][]byte
	streams  streams
	cl       *cluster
	convertS float64
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 15

// planSize bounds the closed loop's pre-generated requests.
const planSize = 60_000

// setup converts the ChampSim fixture to PFTC and registers it as a
// benchmark, builds and validates the matrix, pre-generates the request
// plan and the replay streams, and starts the in-process fabric.
func (w workloadDef) setup(e *env, n int) (*state, error) {
	dir := filepath.Join(e.tmp, "setup-"+strconv.Itoa(n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &state{}
	start := time.Now()
	if err := registerFixture(filepath.Join(e.root, fixturePath), dir, setupTraceName(n)); err != nil {
		return nil, err
	}
	st.convertS = time.Since(start).Seconds()

	st.cells = w.cells(e.seed)
	for _, c := range st.cells {
		if err := c.cfg.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", c.label(), err)
		}
	}
	st.plan = makeRunPlan(e.seed, planSize, benchmarks(), serviceBudget, repeatsPerTen)
	for k, seed := range sweepSeeds[:w.streams] {
		req := w.sweep(k)
		wu := w.budget.warmup
		req.Stream, req.Instructions, req.Warmup, req.Seed = true, w.budget.n, &wu, seed
		b, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		st.sweeps = append(st.sweeps, b)
	}
	var err error
	if st.streams, err = recordStreams(benchmarks(), e.seed); err != nil {
		return nil, err
	}
	if st.cl, err = startCluster(filepath.Join(dir, "cas")); err != nil {
		return nil, err
	}
	return st, nil
}

// setupTraceName is the name set-up n registers the converted fixture
// under. Registering a name again with the same contents is a no-op that
// skips verification, so each set-up takes a name of its own and pays for
// the full verified registration; the first one's is the matrix's
// trace:sample.
func setupTraceName(n int) string {
	if n == 0 {
		return "sample"
	}
	return "sample-" + strconv.Itoa(n)
}

// registerFixture converts the ChampSim fixture into a one-trace PFTC
// corpus in dir and registers it, verified, as trace:<name>.
func registerFixture(fixture, dir, name string) error {
	in, err := os.Open(fixture)
	if err != nil {
		return err
	}
	defer func() { _ = in.Close() }() // read-only
	src, err := tracefile.MaybeGzip(in)
	if err != nil {
		return err
	}
	out, err := os.Create(filepath.Join(dir, "sample.pftc"))
	if err != nil {
		return err
	}
	st, err := tracefile.ConvertChampSim(src, out, tracefile.WriterOptions{})
	if err != nil {
		_ = out.Close() // the convert error takes precedence
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	m := tracefile.Manifest{Version: tracefile.ManifestVersion}
	m.Upsert(tracefile.ManifestEntry{Name: name, File: "sample.pftc", SHA256: st.Fingerprint, Records: st.Records, FormatVersion: tracefile.Version})
	manifest := filepath.Join(dir, "corpus.json")
	if err := tracefile.SaveManifest(manifest, m); err != nil {
		return err
	}
	_, err = tracefile.RegisterCorpus(config.TraceConfig{Manifest: manifest, Verify: true})
	return err
}

// run sets up, measures, checks every output, and fills the ledger with
// the run's metrics.
func (w workloadDef) run(e *env, l *ledger) error {
	var (
		st         *state
		setupSpans [][2]time.Time
		convertS   []float64
	)
	y := startYardstick()
	defer y.close()
	for i := 0; i < setupReps; i++ {
		if st != nil {
			st.cl.close()
			st = nil // the previous set-up's state is garbage before the next
		}
		runtime.GC() // every set-up starts from the same heap state
		start := time.Now()
		var err error
		if st, err = w.setup(e, i); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupSpans = append(setupSpans, [2]time.Time{start, time.Now()})
		convertS = append(convertS, st.convertS)
	}
	defer st.cl.close()
	var setupS, setupRaw []float64
	for _, sp := range setupSpans {
		raw := sp[1].Sub(sp[0]).Seconds()
		setupRaw = append(setupRaw, raw)
		setupS = append(setupS, raw*y.scale(sp[0], sp[1]))
	}
	l.set("setup_s", median(setupS), fmt.Sprintf("median of %d set-ups, at reference speed", setupReps))
	l.infof("raw setup_s %.6f s (median, unscaled)", median(setupRaw))
	l.set("tracefile.convert_s", median(convertS), "")

	// The measured time is spent in rounds: a matrix sweep (in a traced
	// run, an untraced and a traced sweep side by side), a streamed sweep
	// when one falls due, and the closed loop for loopTime. Interleaving
	// spreads every metric's samples over the whole run, so a slow spell
	// on the machine moves all of them a little rather than one a lot.
	measure := time.Duration(e.seconds) * time.Second
	begin := time.Now()
	end := begin.Add(measure)
	hist := pfmetrics.New()
	var tr *recorder
	if l.traced {
		tr = newRecorder()
	}
	lp := newClosedLoop(st.cl, st.plan, l, tr)
	var sweeps, traced []sweepOut
	var sweepWalls, sweepRaw []float64 // streamed sweeps, scaled and raw
	streamNext := func() {
		k := len(sweepWalls)
		l.attempt(1)
		var t0 int64
		if tr != nil {
			t0 = tr.now()
		}
		sw := streamSweep(st.cl, st.sweeps[k], l.fail)
		if tr != nil {
			tr.interval("server.sweep", k, t0, int64(sw.cells))
		}
		sweepWalls = append(sweepWalls, sw.wall.Seconds()*y.scale(sw.began, sw.began.Add(sw.wall)))
		sweepRaw = append(sweepRaw, sw.wall.Seconds())
		if pins := pinnedSweepFP[w.name]; k >= len(pins) || sw.fingerprint != pins[k] {
			want := "nothing"
			if k < len(pins) {
				want = pins[k]
			}
			l.fail("sweep %d fingerprint %s, pinned %s", k, sw.fingerprint, want)
		}
	}
	var round time.Duration
	var roundRSS []float64 // each round's peak resident set, in MiB
	rssResets := true
	for len(sweeps) < 2 || time.Now().Add(round).Before(end) {
		start := time.Now()
		runtime.GC() // every sweep starts from the same heap state
		rssResets = resetPeakRSS() && rssResets
		sweeps = append(sweeps, runSweep(st.cells, w.budget, hist, nil))
		if l.traced {
			runtime.GC()
			traced = append(traced, runSweep(st.cells, w.budget, hist, tr))
		}
		runtime.GC() // and so does every round's service phase
		// Streamed sweep k falls due k/len(st.sweeps) of the way through.
		if k := len(sweepWalls); k < len(st.sweeps) && time.Since(begin) >= measure*time.Duration(k)/time.Duration(len(st.sweeps)) {
			streamNext()
		}
		lp.run(w.loopTime)
		roundRSS = append(roundRSS, peakRSSMB())
		round = time.Since(start)
	}
	for len(sweepWalls) < len(st.sweeps) {
		streamNext()
	}
	// The time left, too short for another round, goes to the closed loop.
	for time.Now().Add(chunkLen).Before(end) || lp.out.sent < w.minRuns {
		lp.run(chunkLen)
	}
	svc := lp.out
	l.attempt(svc.sent)

	check := func(s sweepOut) string {
		l.attempt(len(st.cells))
		for i, c := range st.cells {
			checkCell(c, w.budget, s.cells[i], l.fail)
		}
		return digest(st.cells, s.cells)
	}
	digests := map[string]int{}
	for _, s := range sweeps {
		digests[check(s)]++
	}
	for _, s := range traced {
		if d := check(s); digests[d] == 0 {
			l.fail("traced sweep digest %s differs from the untraced sweeps'", d)
		}
	}
	if len(digests) != 1 {
		l.fail("sweeps of one run gave %d different digests", len(digests))
	}
	var dig string
	for d := range digests {
		dig = d
	}
	if e.seed == defaultSeed {
		l.attempt(1)
		if want := pinnedDigest[w.name]; dig != want {
			l.fail("digest %s, pinned %s for seed %d", dig, want, defaultSeed)
		}
	}
	l.infof("digest %s (%d cells, %d untraced sweeps)", dig, len(st.cells), len(sweeps))

	if l.traced {
		return w.layerMetrics(e, st, l, tr, sweeps, traced, svc)
	}
	w.endToEndMetrics(st, l, y, sweeps, svc, sweepWalls, roundRSS, rssResets)
	l.infof("raw svc_sweep_s %.6f s (median, unscaled)", median(sweepRaw))
	bu := y.burstUS()
	l.infof("yardstick bursts (us, n=%d): median %.2f, quartiles %.2f %.2f; %.2f%% of processor time stolen", len(bu), median(bu), quantile(bu, 0.25), quantile(bu, 0.75), y.stealPct())
	return nil
}

// endToEndMetrics reports the untraced metrics. Host times are scaled to
// the reference speed by the yardstick marks around each sample; the raw
// medians are printed beside them.
func (w workloadDef) endToEndMetrics(st *state, l *ledger, y *yardstick, sweeps []sweepOut, svc svcOut, sweepWalls, roundRSS []float64, rssResets bool) {
	var walls, rawWalls, mips, rawMIPS, cellMS []float64
	var allocs, ncells uint64
	for _, s := range sweeps {
		walls = append(walls, s.wall.Seconds()*y.scale(s.began, s.began.Add(s.wall)))
		rawWalls = append(rawWalls, s.wall.Seconds())
		var sum, raw float64 // cell wall time, scaled and raw
		for _, o := range s.cells {
			ms := float64(o.wall) / 1e6 * y.scale(o.began, o.began.Add(o.wall))
			cellMS = append(cellMS, ms)
			sum += ms / 1e3
			raw += o.wall.Seconds()
		}
		instr := float64(int64(len(s.cells)) * w.budget.total())
		mips = append(mips, instr/sum/1e6)
		rawMIPS = append(rawMIPS, instr/raw/1e6)
		allocs += s.allocs
		ncells += uint64(len(s.cells))
	}
	sum := summarize(st.cells, sweeps[0].cells, w.budget)
	l.infof("sweep walls (s): raw %.3f, scaled %.3f; raw sim_mips (median, unscaled) %.4f", rawWalls, walls, median(rawMIPS))
	l.set("sweep_s", median(walls), fmt.Sprintf("median of %d sweeps of %d cells, %d workers, at reference speed", len(walls), len(st.cells), jobs))
	l.set("sim_mips", median(mips), "warmup included, at reference speed")
	cellsNote := fmt.Sprintf("over the cells of %d sweeps, each at reference speed; n=%d cells", len(sweeps), ncells)
	l.set("cell_ms_p50", quantile(cellMS, 0.5), cellsNote)
	l.set("cell_ms_p90", quantile(cellMS, 0.9), cellsNote)
	l.set("alloc_kb_per_cell", float64(allocs)/float64(ncells)/1024, "")
	rss, rssNote := median(roundRSS), fmt.Sprintf("median over %d rounds of the round's VmHWM", len(roundRSS))
	if !rssResets {
		rss, rssNote = peakRSSMB(), "VmHWM of the whole run (it cannot be reset here)"
	}
	l.set("peak_rss_mb", rss, rssNote)
	l.infof("peak_rss_mb per round (MiB): %.1f", roundRSS)
	l.set("ipc_geomean", sum.ipcGeomean, "simulated")
	l.set("pa_ipc_gain_pct", sum.paGainPct, fmt.Sprintf("simulated; %d pa/none pairs", sum.paPairs))
	l.set("table2_l1_err_pct", sum.table2Err, fmt.Sprintf("simulated, in-sample (the models were tuned to Table 2); %d cells", sum.table2Cells))
	l.set("fig1_bad_pf_err_pts", sum.fig1Err, fmt.Sprintf("simulated, held out (48%% was never a tuning target); %d cells", sum.fig1Cells))
	rps, lat := svc.chunkFigures(y, 0.5, 0.95)
	rawRPS, rawLat := svc.chunkFigures(nil, 0.5, 0.95)
	reqs := fmt.Sprintf("n=%d requests (%d hits, %d misses) in %d loop chunks, each at reference speed", svc.sent, len(svc.hitMS), len(svc.missMS), len(svc.chunks))
	l.set("svc_rps", rps, fmt.Sprintf("%d clients, closed loop; median over the chunks; %s", clients, reqs))
	l.set("svc_run_ms_p50", lat[0], reqs)
	l.set("svc_run_ms_p95", lat[1], reqs)
	l.infof("raw svc_rps %.3f 1/s, svc_run_ms_p50 %.6f ms, svc_run_ms_p95 %.6f ms (unscaled)", rawRPS, rawLat[0], rawLat[1])
	l.set("svc_sweep_s", median(sweepWalls), fmt.Sprintf("median of %d streamed sweeps, at reference speed", len(sweepWalls)))
}

// resetPeakRSS resets the process's VmHWM to its current resident set,
// so each round's peak can be read on its own. Linux allows it through
// /proc/self/clear_refs; elsewhere it does nothing.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// repeatsPerTen is how many of every ten closed-loop requests repeat an
// earlier cell. Well above half, so the latency median sits among the
// CAS hits and the 95th percentile among the simulations, not in the gap
// between the two modes.
const repeatsPerTen = 7
