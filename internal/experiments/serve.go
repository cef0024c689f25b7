// Exported service entry points. The pfserved daemon (internal/server)
// drives the harness through these instead of the figure experiments:
// it expands request matrices the same way Prewarm does, schedules them
// on internal/sched, and shares simulations process-wide through the
// single-flight memo — so two concurrent identical requests perform one
// simulation.

package experiments

import (
	"context"

	"repro/internal/config"
	"repro/internal/sched"
	"repro/internal/stats"
)

// MatrixItem is one (benchmark, config) cell of a sweep matrix.
type MatrixItem struct {
	Bench  string
	Config config.Config
	// Generator labels a generator-axis cell with the prefetch-generator
	// kind the config runs; empty on plain (benchmark, filter) sweeps.
	// It is presentation metadata only — the simulated machine is fully
	// described by Config.
	Generator string
	// IPrefetcher labels an I-side-axis cell with the instruction-
	// prefetcher kind the config's front end runs; empty otherwise.
	// Presentation metadata only, like Generator.
	IPrefetcher string
}

// Name labels the cell "<benchmark>/<filter>", or
// "<benchmark>/<generator>/<filter>" and "<benchmark>/i:<iprefetcher>/<filter>"
// on the generator and I-side axes.
func (it MatrixItem) Name() string {
	switch {
	case it.IPrefetcher != "":
		return it.Bench + "/i:" + it.IPrefetcher + "/" + string(it.Config.Filter.Kind)
	case it.Generator != "":
		return it.Bench + "/" + it.Generator + "/" + string(it.Config.Filter.Kind)
	}
	return it.Bench + "/" + string(it.Config.Filter.Kind)
}

// StandardMatrix returns the full evaluation matrix the paper-figure
// experiments request — the same expansion Prewarm schedules. Narrow it
// by setting Params.Benchmarks.
func (p *Params) StandardMatrix() []MatrixItem {
	items := p.standardMatrix()
	out := make([]MatrixItem, len(items))
	for i, it := range items {
		out[i] = MatrixItem{Bench: it.bench, Config: it.cfg}
	}
	return out
}

// CacheKey returns the fully-qualified memo key for one simulation:
// benchmark, instruction budget, warmup, seed, and the canonical config
// encoding. Two requests with equal keys are guaranteed to share one
// simulation (see runMemo).
func (p *Params) CacheKey(bench string, cfg config.Config) string {
	return p.cacheKey(bench, cfg)
}

// RunSim executes (and memoizes) one simulation under ctx. It is the
// exported form of the harness's internal run path: cache probe, then
// process-wide single-flight through the bounded memo. Safe for
// concurrent use.
func (p *Params) RunSim(ctx context.Context, bench string, cfg config.Config) (stats.Run, error) {
	return p.runCtx(ctx, bench, cfg)
}

// CostModel returns the wall-time-histogram-backed scheduler cost
// estimator built from p.Metrics (constant-cost when no history exists).
func (p *Params) CostModel() sched.CostModel {
	return p.costModel()
}
