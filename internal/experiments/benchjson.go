// The bench-JSON harness: a machine-readable performance baseline for
// the simulator, so every PR has a wall-clock trajectory to compare
// against (BENCH_baseline.json at the repo root; regression policy in
// docs/PERFORMANCE.md).
//
// Unlike Prewarm, the harness deliberately BYPASSES the memo cache:
// every entry is a fresh, timed simulation, because the product is the
// timing, not the result. Determinism still holds for the simulation
// outputs recorded alongside the timings (instructions, cycles, IPC) —
// those must be identical run-to-run; the wall-clock fields are
// machine-dependent by nature.

package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"repro/internal/config"
	"repro/internal/frontend"
	"repro/internal/prefetch"
	"repro/internal/sched"
	"repro/internal/sim"
)

// BenchEntry is one timed simulation of the bench matrix.
type BenchEntry struct {
	// Name is "<benchmark>/<generator>/<filter>" (e.g. "mcf/nsp/pa"),
	// or "<benchmark>/i:<iprefetcher>/<filter>" for an I-side cell.
	Name      string `json:"name"`
	Benchmark string `json:"benchmark"`
	Generator string `json:"generator"`
	// IPrefetcher labels an I-side cell (front end enabled, Generator
	// empty); empty on the D-side matrix.
	IPrefetcher string `json:"iprefetcher,omitempty"`
	Filter      string `json:"filter"`

	// WallNS is the simulation's wall time in nanoseconds (machine-
	// dependent; the regression gate compares like-for-like machines).
	WallNS int64 `json:"wall_ns"`
	// MIPS is simulated instructions, warmup included, per wall-clock
	// second / 1e6 — the simulator-throughput headline number.
	MIPS float64 `json:"mips"`

	// Deterministic simulation outputs; identical across runs and
	// machines for a given seed/budget. A change here is a semantics
	// change, not a performance change.
	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"`
	IPC          float64 `json:"ipc"`
}

// benchMIPS is one cell's simulator throughput. The wall time covers the
// warmup window as well as the measured one, so both count.
func benchMIPS(measured uint64, warmup int64, wall time.Duration) float64 {
	secs := wall.Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(measured+uint64(sim.EffectiveWarmup(warmup))) / secs / 1e6
}

// BenchReport is the bench-JSON document.
type BenchReport struct {
	Schema     int    `json:"schema"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Jobs       int    `json:"jobs"`

	// Matrix parameters.
	InstructionsPerRun int64    `json:"instructions_per_run"`
	WarmupPerRun       int64    `json:"warmup_per_run"`
	Seed               uint64   `json:"seed"`
	Benchmarks         []string `json:"benchmarks"`
	Generators         []string `json:"generators"`
	IPrefetchers       []string `json:"iprefetchers,omitempty"`
	Filters            []string `json:"filters"`

	// TotalWallNS is the whole sweep's wall time under the scheduler;
	// SerialWallNS is the sum of per-entry wall times (what a serial
	// sweep would cost). SerialWallNS/TotalWallNS is the harness speedup.
	TotalWallNS  int64 `json:"total_wall_ns"`
	SerialWallNS int64 `json:"serial_wall_ns"`
	Steals       int64 `json:"steals"`

	Entries []BenchEntry `json:"entries"`
}

// Speedup returns the parallel harness speedup over a serial sweep.
func (r *BenchReport) Speedup() float64 {
	if r.TotalWallNS == 0 {
		return 0
	}
	return float64(r.SerialWallNS) / float64(r.TotalWallNS)
}

// benchFilters is the reduced bench matrix: the paper's headline filter
// configurations plus the learned backends from internal/filter, so the
// baseline tracks the wall-clock cost of every backend a sweep can
// select. Sweeps (table sizes, ports, buffers) live in Prewarm; the
// bench harness wants stable, comparable, fast coverage.
var benchFilters = []config.FilterKind{
	config.FilterNone, config.FilterPA, config.FilterPC,
	config.FilterPerceptron, config.FilterBloom, config.FilterTournament,
}

// BenchJSON runs the reduced (benchmark x generator x filter) matrix
// through the work-stealing scheduler with `jobs` workers, timing every
// simulation, and returns the report. Every cell is a single-generator
// machine (config.WithGenerator) so the baseline tracks the wall-clock
// cost of each generator backend under each filter. The context cancels
// queued simulations.
func (p *Params) BenchJSON(ctx context.Context, jobs int) (*BenchReport, error) {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	generators := prefetch.Sweepable()
	iprefetchers := frontend.Sweepable()
	type unit struct {
		name   string
		bench  string
		gen    config.PrefetchKind
		ipref  config.IPrefetchKind
		filter config.FilterKind
	}
	var units []unit
	for _, b := range p.benchmarks() {
		for _, g := range generators {
			for _, f := range benchFilters {
				units = append(units, unit{
					name:   b + "/" + g + "/" + string(f),
					bench:  b,
					gen:    config.PrefetchKind(g),
					filter: f,
				})
			}
		}
		// The I-side matrix: front end enabled, each instruction
		// prefetcher alone, so the baseline tracks the wall-clock cost
		// of the fetch model and each I-side backend under each filter.
		for _, ip := range iprefetchers {
			for _, f := range benchFilters {
				units = append(units, unit{
					name:   b + "/i:" + ip + "/" + string(f),
					bench:  b,
					ipref:  config.IPrefetchKind(ip),
					filter: f,
				})
			}
		}
	}

	cost := p.costModel()
	sjobs := make([]sched.Job, 0, len(units))
	for _, u := range units {
		u := u
		sjobs = append(sjobs, sched.Job{
			Key:  u.name,
			Cost: cost(u.bench),
			Run: func(ctx context.Context) (any, error) {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				cfg := config.Default()
				if u.ipref != "" {
					cfg = cfg.WithIPrefetch(u.ipref)
				} else {
					cfg = cfg.WithGenerator(u.gen)
				}
				cfg = cfg.WithFilter(u.filter)
				cfg.Seed = p.Seed
				start := time.Now()
				r, err := sim.Run(sim.Options{
					Benchmark:       u.bench,
					Config:          cfg,
					MaxInstructions: p.Instructions,
					Warmup:          p.Warmup,
				})
				if err != nil {
					return nil, fmt.Errorf("bench %s: %w", u.name, err)
				}
				wall := time.Since(start)
				e := BenchEntry{
					Name:         u.name,
					Benchmark:    u.bench,
					Generator:    string(u.gen),
					IPrefetcher:  string(u.ipref),
					Filter:       string(u.filter),
					WallNS:       wall.Nanoseconds(),
					Instructions: r.Instructions,
					Cycles:       r.Cycles,
					IPC:          r.IPC(),
				}
				e.MIPS = benchMIPS(r.Instructions, p.Warmup, wall)
				return e, nil
			},
		})
	}

	sweepStart := time.Now()
	results, ctxErr := sched.Run(ctx, sjobs, sched.Options{Workers: jobs, Metrics: p.Metrics})
	total := time.Since(sweepStart)
	if ctxErr != nil {
		return nil, ctxErr
	}

	report := &BenchReport{
		Schema:             3, // 2: generator axis; 3: I-side (iprefetcher) cells
		GoVersion:          runtime.Version(),
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		Jobs:               jobs,
		InstructionsPerRun: p.Instructions,
		WarmupPerRun:       p.Warmup,
		Seed:               p.Seed,
		Benchmarks:         p.benchmarks(),
		Generators:         generators,
		IPrefetchers:       iprefetchers,
		TotalWallNS:        total.Nanoseconds(),
	}
	for _, f := range benchFilters {
		report.Filters = append(report.Filters, string(f))
	}
	for _, u := range units {
		r := results[u.name]
		if r.Err != nil {
			return nil, r.Err
		}
		e, ok := r.Value.(BenchEntry)
		if !ok {
			return nil, fmt.Errorf("bench %s: unexpected result type %T", u.name, r.Value)
		}
		report.SerialWallNS += e.WallNS
		report.Entries = append(report.Entries, e)
	}
	sort.Slice(report.Entries, func(i, j int) bool { return report.Entries[i].Name < report.Entries[j].Name })
	if p.Metrics != nil {
		report.Steals = int64(p.Metrics.Snapshot().Counters["sched.steals"])
	}
	return report, nil
}

// WriteJSON emits the report as indented JSON.
func (r *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
