// Sweep axes: the three backend zoos — pollution filters
// (internal/filter), D-side prefetch generators (internal/prefetch) and
// I-side instruction prefetchers (internal/frontend) — as one kind of
// sweep dimension. An Axis holds everything a sweep needs to know about
// its zoo: the "all" expansion, name validation, the config mutator that
// runs one backend, and the row builder of its comparison table.
// Params.Compare, the pfserved sweep expansion and summary, the
// bench-JSON matrix and pfexperiments all drive a zoo through its Axis,
// so a new zoo is one descriptor, not four code paths.
package experiments

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/config"
	"repro/internal/filter"
	"repro/internal/frontend"
	"repro/internal/prefetch"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/stats"
)

// Axis describes one backend zoo as a sweep dimension.
type Axis struct {
	// Name is the axis's flag and request-field spelling ("filters",
	// "generators", "iprefetch") and the ID of its experiment.
	Name string
	// Title heads the axis's comparison table.
	Title string

	noun, nouns string // error text: "unknown <noun> … (registered <nouns>: …)"
	about       string // the experiment's one-line description
	reg         interface {
		Resolve(name string) (string, bool)
		Kinds() []string
	}
	all    func() []string
	item   func(bench string, machine config.Config, kind string) MatrixItem
	add    func(c *Comparison, it MatrixItem, r stats.Run, base *stats.Run)
	render func(c Comparison, title string) *Table
}

var (
	// Filters is the pollution-filter zoo. It adds no machine dimension
	// of its own: its kinds are the filter dimension every sweep has.
	Filters = &Axis{
		Name: "filters", Title: "Filter backends head to head (default machine)",
		noun: "filter", nouns: "backends",
		about: "Pollution-filter backends head to head (internal/filter zoo)",
		reg:   filter.Backends, all: filter.Sweepable,
		item: func(bench string, machine config.Config, _ string) MatrixItem {
			return MatrixItem{Bench: bench, Config: machine}
		},
		add: func(c *Comparison, it MatrixItem, r stats.Run, base *stats.Run) {
			c.Filters = append(c.Filters, filterRow(it, r, base))
		},
		render: func(c Comparison, title string) *Table { return report.FilterComparison(title, c.Filters) },
	}
	// Generators runs each D-side prefetch generator alone.
	Generators = &Axis{
		Name: "generators", Title: "Generator zoo crossed with filters (default machine)",
		noun: "generator", nouns: "generators",
		about: "Prefetch-generator zoo crossed with the filter zoo (internal/prefetch registry)",
		reg:   prefetch.Generators, all: prefetch.Kinds,
		item: func(bench string, machine config.Config, kind string) MatrixItem {
			return MatrixItem{Bench: bench, Config: machine.WithGenerator(config.PrefetchKind(kind)), Generator: kind}
		},
		add: func(c *Comparison, it MatrixItem, r stats.Run, base *stats.Run) {
			c.Generators = append(c.Generators, report.GeneratorComparisonRow{Generator: it.Generator, FilterComparisonRow: filterRow(it, r, base)})
		},
		render: func(c Comparison, title string) *Table { return report.GeneratorComparison(title, c.Generators) },
	}
	// IPrefetch enables the front end and runs each instruction
	// prefetcher alone; the D-side generators stay at the default
	// machine's settings, so the filter sees both streams.
	IPrefetch = &Axis{
		Name: "iprefetch", Title: "Instruction-prefetcher zoo crossed with filters (front end enabled)",
		noun: "instruction prefetcher", nouns: "backends",
		about: "Instruction-prefetcher zoo crossed with the filter zoo (internal/frontend registry)",
		reg:   frontend.Backends, all: frontend.Kinds,
		item: func(bench string, machine config.Config, kind string) MatrixItem {
			return MatrixItem{Bench: bench, Config: machine.WithIPrefetch(config.IPrefetchKind(kind)), IPrefetcher: kind}
		},
		add: func(c *Comparison, it MatrixItem, r stats.Run, base *stats.Run) {
			c.IPrefetch = append(c.IPrefetch, iprefetchRow(it, r, base))
		},
		render: func(c Comparison, title string) *Table { return report.IPrefetchComparison(title, c.IPrefetch) },
	}

	// Axes lists every zoo. Where a caller picks one of several set
	// axes, a later entry wins: the filter list also names the filter
	// dimension of the others.
	Axes = []*Axis{Filters, Generators, IPrefetch}
)

func init() {
	for _, ax := range Axes {
		register(Experiment{
			ID:    ax.Name,
			Title: ax.about,
			Run: func(p *Params) (*Table, error) {
				// A representative filter slice keeps the full suite
				// tractable; pfexperiments and the serving layer expose
				// the complete cross-product. The Filters axis sweeps
				// every sweepable filter.
				c, err := p.Compare(context.Background(), ax, nil, []string{string(config.FilterPA), string(config.FilterPerceptron)}, 0)
				if err != nil {
					return nil, err
				}
				return c.Table(ax.Title), nil
			},
		})
	}
}

// expand resolves names to the axis's canonical kinds. Empty or ["all"]
// selects every sweepable kind; otherwise aliases canonicalise,
// duplicates drop (first occurrence wins), and an unregistered name — or
// a registered one that cannot join a sweep, like the static filter — is
// an error.
func (a *Axis) expand(names []string) ([]string, error) {
	all := a.all()
	if len(names) == 0 || len(names) == 1 && names[0] == "all" {
		return all, nil
	}
	out := make([]string, 0, len(names))
	for _, name := range names {
		kind, ok := a.reg.Resolve(name)
		if !ok {
			return nil, fmt.Errorf("unknown %s %q (registered %s: %v)", a.noun, name, a.nouns, a.reg.Kinds())
		}
		if !slices.Contains(all, kind) {
			return nil, fmt.Errorf("the %s %q needs a profiling run and cannot join the sweep", a.noun, name)
		}
		if !slices.Contains(out, kind) {
			out = append(out, kind)
		}
	}
	return out, nil
}

// Matrix expands names (see expand) and crosses the kinds with the
// benchmarks and filter machines: one item per (machine, kind,
// benchmark), machine-major. The Filters axis has no kinds of its own —
// the machines already carry the swept filters — so it ignores names
// and runs each machine as is.
func (a *Axis) Matrix(benches []string, machines []config.Config, names []string) ([]MatrixItem, error) {
	kinds := []string{""}
	if a != Filters {
		var err error
		if kinds, err = a.expand(names); err != nil {
			return nil, err
		}
	}
	items := make([]MatrixItem, 0, len(machines)*len(kinds)*len(benches))
	for _, m := range machines {
		for _, k := range kinds {
			for _, b := range benches {
				items = append(items, a.item(b, m, k))
			}
		}
	}
	return items, nil
}

// Cell is one finished matrix cell: Key is its Params.CacheKey, Run is
// nil when it failed.
type Cell struct {
	Item MatrixItem
	Key  string
	Run  *stats.Run
}

// Comparison is one axis's comparison rows: only the slice of the axis
// that built it is set.
type Comparison struct {
	axis       *Axis
	Filters    []report.FilterComparisonRow
	Generators []report.GeneratorComparisonRow
	IPrefetch  []report.IPrefetchComparisonRow
}

// Table renders the comparison under title.
func (c Comparison) Table(title string) *Table { return c.axis.render(c, title) }

// Rows builds the axis's comparison from finished cells, skipping failed
// ones. A row's IPC delta is against the cell whose config equals its
// own with the filter set to none — same benchmark, machine and backend,
// unfiltered; a cell with no such cell among cells reports zero.
func (a *Axis) Rows(p *Params, cells []Cell) Comparison {
	runs := make(map[string]*stats.Run, len(cells))
	for _, c := range cells {
		if c.Run != nil {
			runs[c.Key] = c.Run
		}
	}
	out := Comparison{axis: a}
	for _, c := range cells {
		if c.Run == nil {
			continue
		}
		base := c.Item.Config
		base.Filter.Kind = config.FilterNone
		a.add(&out, c.Item, *c.Run, runs[p.cacheKey(c.Item.Bench, base)])
	}
	report.SortFilterComparison(out.Filters)
	report.SortGeneratorComparison(out.Generators)
	report.SortIPrefetchComparison(out.IPrefetch)
	return out
}

// Compare runs the (benchmark × kind × filter) cross-product of one
// axis — plus the unfiltered cell each IPC delta needs — on the
// work-stealing scheduler and returns its comparison. Kinds names the
// axis's backends, filters the filter backends each runs under (see
// expand; empty selects all). On the Filters axis the kinds are the
// filter dimension itself and filters is ignored. Workers <= 0 selects
// GOMAXPROCS.
func (p *Params) Compare(ctx context.Context, ax *Axis, kinds, filters []string, workers int) (Comparison, error) {
	if ax == Filters {
		filters = kinds
	}
	fs, err := Filters.expand(filters)
	if err != nil {
		return Comparison{}, fmt.Errorf("experiments: %w", err)
	}
	// The baseline is a cell like any other.
	machines := []config.Config{config.Default().WithFilter(config.FilterNone)}
	for _, f := range fs {
		if f != string(config.FilterNone) {
			machines = append(machines, config.Default().WithFilter(config.FilterKind(f)))
		}
	}
	items, err := ax.Matrix(p.benchmarks(), machines, kinds)
	if err != nil {
		return Comparison{}, fmt.Errorf("experiments: %w", err)
	}

	cost := p.costModel()
	cells := make([]Cell, len(items))
	jobs := make([]sched.Job, len(items))
	for i, it := range items {
		cells[i] = Cell{Item: it, Key: p.cacheKey(it.Bench, it.Config)}
		jobs[i] = sched.Job{
			Key:  cells[i].Key,
			Cost: cost(it.Bench),
			Run: func(ctx context.Context) (any, error) {
				return p.runCtx(ctx, it.Bench, it.Config)
			},
		}
	}
	results, ctxErr := sched.Run(ctx, jobs, sched.Options{Workers: workers, Metrics: p.Metrics})
	if ctxErr != nil {
		return Comparison{}, ctxErr
	}
	var errs []error
	for i := range cells {
		r := results[cells[i].Key]
		if r.Err != nil {
			errs = append(errs, r.Err)
			continue
		}
		run := r.Value.(stats.Run)
		cells[i].Run = &run
	}
	if len(errs) > 0 {
		sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
		return Comparison{}, dedupJoin(errs)
	}
	return ax.Rows(p, cells), nil
}

// filterRow derives the head-to-head metrics for one finished D-side
// cell. Coverage counts the demand misses prefetching hid relative to
// the misses that remain: good / (good + L1 demand misses).
func filterRow(it MatrixItem, r stats.Run, base *stats.Run) report.FilterComparisonRow {
	cov := 0.0
	if denom := r.Prefetches.Good + r.L1DemandMisses; denom > 0 {
		cov = float64(r.Prefetches.Good) / float64(denom)
	}
	return report.FilterComparisonRow{
		Benchmark: it.Bench,
		Filter:    string(it.Config.Filter.Kind),
		Good:      r.Prefetches.Good,
		Bad:       r.Prefetches.Bad,
		Filtered:  r.Prefetches.Filtered,
		Accuracy:  r.Prefetches.GoodFraction(),
		Coverage:  cov,
		IPC:       r.IPC(),
		IPCDelta:  ipcDelta(r, base),
	}
}

// iprefetchRow derives the I-side head-to-head metrics for one finished
// cell. The Frontend block is nil-guarded: a cell served from a store
// written before the front end existed degrades to zero I-side counts
// rather than failing the sweep.
func iprefetchRow(it MatrixItem, r stats.Run, base *stats.Run) report.IPrefetchComparisonRow {
	row := report.IPrefetchComparisonRow{
		IPrefetcher: it.IPrefetcher,
		Benchmark:   it.Bench,
		Filter:      string(it.Config.Filter.Kind),
		IPC:         r.IPC(),
		IPCDelta:    ipcDelta(r, base),
	}
	if fe := r.Frontend; fe != nil {
		row.Good = fe.Prefetches.Good
		row.Bad = fe.Prefetches.Bad
		row.Filtered = fe.Prefetches.Filtered
		row.FetchMissRate = fe.FetchMissRate()
		row.Pollution = fe.Pollution()
	}
	return row
}

// ipcDelta is r's IPC gain over base; zero without a base.
func ipcDelta(r stats.Run, base *stats.Run) float64 {
	if base == nil {
		return 0
	}
	return r.IPC() - base.IPC()
}
