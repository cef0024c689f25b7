package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime/metrics"
	"sort"
	"strconv"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
	pfilter "repro/internal/filter"
	pfmetrics "repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tracefile"
	"repro/internal/workload"
)

// budget is a cell's instruction budget: measured instructions after
// warmup instructions.
type budget struct{ n, warmup int64 }

// total is every instruction a cell simulates, warmup included.
func (b budget) total() int64 { return b.n + b.warmup }

// cell is one simulation of a workload's matrix.
type cell struct {
	id     int
	bench  string
	axis   string // generator ("off", "paper", "nsp", ...), iprefetcher, or a standard-matrix role
	filter string
	cfg    config.Config
}

func (c cell) label() string { return c.bench + "|" + c.axis + "|" + c.filter }

// cellOut is one finished cell.
type cellOut struct {
	run   stats.Run
	began time.Time
	wall  time.Duration
	err   error
	obs   *cellObs // traced runs only
}

// sweepOut is one pass over a matrix.
type sweepOut struct {
	cells  []cellOut
	began  time.Time
	wall   time.Duration
	allocs uint64 // heap bytes allocated during the sweep
	steals uint64
}

// jobs is the simulation worker count of every matrix sweep.
const jobs = 2

// runSweep simulates every cell once on the work-stealing scheduler with
// the harness's cost model (longest-first from the per-benchmark wall
// time histograms in hist). A non-nil tr traces every cell.
func runSweep(cells []cell, b budget, hist *pfmetrics.Registry, tr *recorder) sweepOut {
	out := sweepOut{cells: make([]cellOut, len(cells))}
	cost := sched.CostFromSnapshot(hist.Snapshot(), "experiments.sim.wall_ns.", 1)
	js := make([]sched.Job, len(cells))
	for i, c := range cells {
		i, c := i, c
		js[i] = sched.Job{
			Key:  strconv.Itoa(i),
			Cost: cost(c.bench),
			Run: func(context.Context) (any, error) {
				start := time.Now()
				var o cellOut
				if tr == nil {
					o.run, o.err = sim.Run(sim.Options{Benchmark: c.bench, Config: c.cfg, MaxInstructions: b.n, Warmup: b.warmup})
				} else {
					o.run, o.obs, o.err = simulateTraced(c, b, tr)
				}
				o.began, o.wall = start, time.Since(start)
				hist.Histogram("experiments.sim.wall_ns." + c.bench).Observe(uint64(o.wall))
				out.cells[i] = o
				return nil, o.err
			},
		}
	}
	reg := pfmetrics.New()
	a0 := heapAllocs()
	out.began = time.Now()
	// Background context: a sweep always runs to completion.
	_, _ = sched.Run(context.Background(), js, sched.Options{Workers: jobs, Metrics: reg})
	out.wall = time.Since(out.began)
	out.allocs = heapAllocs() - a0
	out.steals = reg.Counter("sched.steals").Value()
	return out
}

// simulateTraced runs one cell with the source and filter wrapped in
// timing decorators and a metrics registry attached, recording the
// sim.Run span and its children.
func simulateTraced(c cell, b budget, tr *recorder) (stats.Run, *cellObs, error) {
	spec, ok := workload.ByName(c.bench)
	if !ok {
		return stats.Run{}, nil, fmt.Errorf("unknown benchmark %q", c.bench)
	}
	f, err := pfilter.New(c.cfg.Filter)
	if err != nil {
		return stats.Run{}, nil, err
	}
	ct := tr.cell(c.id)
	root := ct.open("sim.Run", -1)
	layer := "workload"
	if tracefile.IsTraceBench(c.bench) {
		layer = "tracefile"
	}
	inner := spec.New(c.cfg.Seed)
	src := newTimedSource(inner, ct, layer+".next", root)
	tf := newTimedFilter(f)
	reg := pfmetrics.New()
	run, err := sim.Run(sim.Options{
		Benchmark: c.bench, Config: c.cfg, Source: src, Filter: tf,
		MaxInstructions: b.n, Warmup: b.warmup, Metrics: reg,
	})
	ct.close(root, b.total())
	tf.record(ct, root)
	if cl, ok := inner.(io.Closer); ok {
		if cerr := cl.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("%s source: %w", c.bench, cerr)
		}
	}
	tr.commit(ct)
	obs := &cellObs{
		layer:       layer,
		robStall:    reg.Counter("sim.cpu.rob_stall_cycles").Value(),
		mshrStall:   reg.Counter("sim.cpu.mshr_stall_cycles").Value(),
		busStall:    reg.Counter("sim.bus.stall_cycles").Value(),
		simNS:       ct.spans[root].busy,
		sourceNS:    src.busy,
		sourceCount: src.records,
		allowNS:     tf.allow.ns, allowCalls: tf.allow.n,
		trainNS: tf.train.ns, trainCalls: tf.train.n,
	}
	return run, obs, err
}

// cellObs is what the tracer measured inside one cell.
type cellObs struct {
	layer                  string
	robStall, mshrStall    uint64
	busStall               uint64
	simNS, sourceNS        int64
	sourceCount            int64
	allowNS, trainNS       int64
	allowCalls, trainCalls int64
}

// checkCell applies the conservation invariants to one finished cell and
// reports every violation.
func checkCell(c cell, b budget, o cellOut, fail func(string, ...any)) {
	if o.err != nil {
		fail("%s: %v", c.label(), o.err)
		return
	}
	r := o.run
	if r.Instructions != uint64(b.n) {
		fail("%s: %d instructions, budget %d", c.label(), r.Instructions, b.n)
	}
	// Statistics reset at the warmup boundary, but prefetched lines that
	// are resident or in flight then are classified good or bad inside
	// the measured window. With warmup, good+bad may therefore exceed
	// issued by at most the prefetches the machine can hold at once:
	// its prefetchable lines plus its prefetch queue.
	var carry, icarry uint64
	if b.warmup > 0 {
		carry = uint64(c.cfg.L1.Sets()*c.cfg.L1.Assoc + c.cfg.Prefetch.QueueEntries)
		if c.cfg.Buffer.Enable {
			carry += uint64(c.cfg.Buffer.Entries)
		}
		if fe := c.cfg.Frontend; fe != nil {
			icarry = uint64(fe.L1I.Sets()*fe.L1I.Assoc + fe.QueueEntries)
		}
	}
	if p := r.Prefetches; p.Good+p.Bad > p.Issued+carry {
		fail("%s: D-side good %d + bad %d > issued %d + %d carried over warmup", c.label(), p.Good, p.Bad, p.Issued, carry)
	}
	if fe := r.Frontend; fe != nil && fe.Prefetches.Good+fe.Prefetches.Bad > fe.Prefetches.Issued+icarry {
		fail("%s: I-side good %d + bad %d > issued %d + %d carried over warmup", c.label(), fe.Prefetches.Good, fe.Prefetches.Bad, fe.Prefetches.Issued, icarry)
	}
	if r.FilterRejected > r.FilterQueries {
		fail("%s: filter rejected %d > queries %d", c.label(), r.FilterRejected, r.FilterQueries)
	}
	if ipc := r.IPC(); ipc > float64(c.cfg.CPU.IssueWidth) || ipc <= 0 {
		fail("%s: IPC %.4f outside (0, issue width %d]", c.label(), ipc, c.cfg.CPU.IssueWidth)
	}
}

// digest is the sha256 over every cell's label and deterministic stats,
// in matrix order.
func digest(cells []cell, outs []cellOut) string {
	h := sha256.New()
	for i, c := range cells {
		b, err := json.Marshal(outs[i].run)
		if err != nil {
			// stats.Run is plain data; Marshal cannot fail.
			panic(err)
		}
		fmt.Fprintf(h, "%s\n%s\n", c.label(), b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// simSummary holds the simulated (deterministic) figures of one sweep.
type simSummary struct {
	ipcGeomean  float64
	paGainPct   float64
	table2Err   float64 // NaN when the matrix has no prefetch-off cells of paper benchmarks
	fig1Err     float64 // NaN when the matrix has no paper-mix unfiltered cells
	paPairs     int
	table2Cells int
	fig1Cells   int
}

// roles a cell can play in the accuracy figures.
const (
	axisOff   = "off"
	axisPaper = "paper"
)

// summarize computes the simulated end-to-end figures of a sweep.
func summarize(cells []cell, outs []cellOut, b budget) simSummary {
	var s simSummary
	logSum := 0.0
	none := map[string]float64{} // bench|axis -> IPC of the unfiltered cell
	for i, c := range cells {
		ipc := outs[i].run.IPC()
		logSum += math.Log(ipc)
		if c.filter == string(config.FilterNone) {
			none[c.bench+"|"+c.axis] = ipc
		}
	}
	s.ipcGeomean = math.Exp(logSum / float64(len(cells)))

	gainLog := 0.0
	var l1Err, badShare []float64
	for i, c := range cells {
		r := outs[i].run
		spec, paper := workload.ByName(c.bench)
		paper = paper && spec.PaperL1Miss > 0
		if c.filter == string(config.FilterPA) {
			if base, ok := none[c.bench+"|"+c.axis]; ok {
				gainLog += math.Log(r.IPC() / base)
				s.paPairs++
			}
		}
		if c.axis == axisOff && paper {
			l1Err = append(l1Err, math.Abs(r.L1MissRate()-spec.PaperL1Miss)/spec.PaperL1Miss)
		}
		if c.axis == axisPaper && c.filter == string(config.FilterNone) && paper {
			if cl := r.Prefetches.Classified(); cl > 0 {
				badShare = append(badShare, float64(r.Prefetches.Bad)/float64(cl))
			}
		}
	}
	if s.paPairs > 0 {
		s.paGainPct = (math.Exp(gainLog/float64(s.paPairs)) - 1) * 100
	}
	s.table2Cells, s.fig1Cells = len(l1Err), len(badShare)
	s.table2Err, s.fig1Err = math.NaN(), math.NaN()
	if len(l1Err) > 0 {
		s.table2Err = stats.Mean(l1Err) * 100
	}
	if len(badShare) > 0 {
		s.fig1Err = math.Abs(stats.Mean(badShare)*100 - 48)
	}
	return s
}

// heapAllocs reads the cumulative heap allocation counter.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// dsideCells is the paper-dside matrix: every benchmark crossed with the
// generator axis (prefetch off, the paper's default mix, and each
// registered generator alone) and the filter axis; "off" runs unfiltered
// only.
func dsideCells(benches []string, seed uint64) []cell {
	var cells []cell
	for _, b := range benches {
		for _, g := range generatorAxis {
			for _, f := range filterAxis {
				var cfg config.Config
				switch g {
				case axisOff:
					if f != string(config.FilterNone) {
						continue
					}
					cfg = sim.NoPrefetchConfig(config.Default())
				case axisPaper:
					cfg = config.Default().WithFilter(config.FilterKind(f))
				default:
					cfg = config.Default().WithGenerator(config.PrefetchKind(g)).WithFilter(config.FilterKind(f))
				}
				cfg.Seed = seed
				cells = append(cells, cell{id: len(cells), bench: b, axis: g, filter: f, cfg: cfg})
			}
		}
	}
	return cells
}

// isideCells is the iside-frontend matrix: every benchmark with the front
// end on, crossed with the instruction prefetchers and the filter axis,
// plus two unfiltered baselines with the front end on and no instruction
// prefetcher: "off" (no prefetching on either side, the Table 2
// condition) and "paper" (the paper's D-side mix).
func isideCells(benches []string, seed uint64) []cell {
	var cells []cell
	add := func(b, axis, f string, cfg config.Config) {
		cfg.Seed = seed
		cells = append(cells, cell{id: len(cells), bench: b, axis: axis, filter: f, cfg: cfg})
	}
	none := string(config.FilterNone)
	for _, b := range benches {
		add(b, axisOff, none, config.Default().WithIPrefetch(config.IPrefetchNone))
		paper := config.Default()
		fe := config.DefaultFrontend()
		fe.IPrefetch = config.IPrefetchNone
		paper.Frontend = &fe
		add(b, axisPaper, none, paper)
		for _, ip := range iprefetchAxis {
			for _, f := range filterAxis {
				add(b, ip, f, config.Default().WithIPrefetch(config.IPrefetchKind(ip)).WithFilter(config.FilterKind(f)))
			}
		}
	}
	return cells
}

// standardCells turns a standard-matrix expansion into cells, dropping
// repeated configurations and naming each cell's role: "off" (the
// Table 2 no-prefetch machine), "paper" (the default machine with the
// paper's mix), or "std<i>" (any other configuration of the expansion).
func standardCells(items []experiments.MatrixItem, seed uint64) []cell {
	off := sim.NoPrefetchConfig(config.Default())
	seen := map[string]bool{}
	var cells []cell
	for i, it := range items {
		cfg := it.Config
		key, err := json.Marshal(cfg)
		if err != nil {
			panic(err) // config.Config is plain data
		}
		if seen[it.Bench+string(key)] {
			continue
		}
		seen[it.Bench+string(key)] = true
		axis := "std" + strconv.Itoa(i)
		switch {
		case reflect.DeepEqual(cfg, off):
			axis = axisOff
		case reflect.DeepEqual(cfg, config.Default().WithFilter(cfg.Filter.Kind)):
			axis = axisPaper
		}
		cfg.Seed = seed
		cells = append(cells, cell{id: len(cells), bench: it.Bench, axis: axis, filter: string(cfg.Filter.Kind), cfg: cfg})
	}
	return cells
}

// generatorAxis, filterAxis and iprefetchAxis are the matrix axes.
var (
	generatorAxis = []string{axisOff, axisPaper, "nsp", "sdp", "stride", "corr", "ghb", "berti"}
	filterAxis    = []string{"none", "pa", "pc", "perceptron", "bloom", "tournament"}
	iprefetchAxis = []string{"nextline", "mana"}
)
