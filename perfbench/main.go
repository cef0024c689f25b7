// Command perfbench is the repository's benchmark: it drives the
// simulator, the sweep harness, the service and the fabric from outside
// (through their exported functions), checks that every simulated result
// is correct, and prints end-to-end metrics (untraced runs) or per-layer
// metrics (traced runs). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload paper-dside --seed 1 --seconds 38 --trace 0
//
// See perfbench/README.md for the workloads and the metric table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// defaultSeed is the seed the pinned digests belong to.
const defaultSeed = 1

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the machine-readable last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, "input seed")
	seconds := fs.Int("seconds", 38, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	root := fs.String("root", ".", "root of the repository checkout")
	out := fs.String("out", "", "also append the result, tagged with workload, seed and trace, to this JSONL file (input of compare.py)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	env, err := newEnv(*root, *seed, *seconds)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer env.close()

	l := newLedger(*traceFlag == 1)
	if err := w.run(env, l); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res, err := l.result()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, f := range l.failures {
		fmt.Fprintf(stderr, "perfbench: FAIL %s\n", f)
	}
	l.print(stdout, w.name, *seed)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := appendResult(*out, w.name, *seed, *traceFlag, line); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// appendResult adds one tagged result line to a JSONL file for compare.py.
func appendResult(path, workload string, seed uint64, trace int, line []byte) error {
	tagged, err := json.Marshal(struct {
		Workload string          `json:"workload"`
		Seed     uint64          `json:"seed"`
		Trace    int             `json:"trace"`
		Result   json.RawMessage `json:"result"`
	}{workload, seed, trace, line})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(tagged, '\n')); err != nil {
		_ = f.Close() // the write error takes precedence
		return err
	}
	return f.Close()
}

// metricDef names one reported metric.
type metricDef struct {
	name, unit, dir string // dir: "lower" or "higher" is better
}

// endToEnd lists the metrics an untraced run reports; BENCHMARK.json's
// end_to_end list must match it (see TestBenchmarkJSONMatchesMetricTables).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sweep_s", "s", "lower"},
	{"sim_mips", "MIPS", "higher"},
	{"cell_ms_p50", "ms", "lower"},
	{"cell_ms_p90", "ms", "lower"},
	{"alloc_kb_per_cell", "KiB", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"ipc_geomean", "IPC", "higher"},
	{"pa_ipc_gain_pct", "%", "higher"},
	{"table2_l1_err_pct", "%", "lower"},
	{"fig1_bad_pf_err_pts", "pts", "lower"},
	{"svc_rps", "1/s", "higher"},
	{"svc_run_ms_p50", "ms", "lower"},
	{"svc_run_ms_p95", "ms", "lower"},
	{"svc_sweep_s", "s", "lower"},
}

// perLayer lists the metrics a traced run reports; BENCHMARK.json's
// per_layer list must match it.
var perLayer = []metricDef{
	{"workload.ns_per_record", "ns", "lower"},
	{"tracefile.ns_per_record", "ns", "lower"},
	{"tracefile.convert_s", "s", "lower"},
	{"sim.construct_us", "us", "lower"},
	{"sim.core_ns_per_instr", "ns", "lower"},
	{"cpu.host_ns_per_cycle", "ns", "lower"},
	{"cpu.ipc", "IPC", "higher"},
	{"cpu.fetch_stall_frac", "ratio", "lower"},
	{"cpu.port_conflict_frac", "ratio", "lower"},
	{"cpu.mshr_stall_frac", "ratio", "lower"},
	{"cpu.rob_stall_frac", "ratio", "lower"},
	{"hier.replay_ns_per_access", "ns", "lower"},
	{"hier.replay_ns_per_fetch", "ns", "lower"},
	{"hier.idle_poll_frac", "ratio", "lower"},
	{"cache.ns_per_probe", "ns", "lower"},
	{"cache.new_kb", "KiB", "lower"},
	{"cache.l1d_miss_ratio", "ratio", "lower"},
	{"cache.l2_miss_ratio", "ratio", "lower"},
	{"cache.l1i_miss_ratio", "ratio", "lower"},
	{"filter.allow_ns", "ns", "lower"},
	{"filter.train_ns", "ns", "lower"},
	{"filter.reject_ratio", "ratio", "higher"},
	{"prefetch.accuracy", "ratio", "higher"},
	{"prefetch.issued_per_kinstr", "count", "lower"},
	{"frontend.accuracy", "ratio", "higher"},
	{"frontend.pollution", "ratio", "lower"},
	{"frontend.issued_per_kinstr", "count", "lower"},
	{"bus.stall_frac", "ratio", "lower"},
	{"sched.speedup", "x", "higher"},
	{"sched.tail_idle_frac", "ratio", "lower"},
	{"sched.steals", "count", "lower"},
	{"experiments.memo_hit_ratio", "ratio", "higher"},
	{"server.hit_ms_p50", "ms", "lower"},
	{"server.hit_ms_p95", "ms", "lower"},
	{"server.miss_ms_p50", "ms", "lower"},
	{"server.rejected", "count", "lower"},
	{"fabric.cold_run_s", "s", "lower"},
	{"fabric.warm_run_s", "s", "lower"},
	{"fabric.cas_get_us", "us", "lower"},
	{"fabric.cas_put_us", "us", "lower"},
	{"fabric.cas_hit_ratio", "ratio", "higher"},
	{"fabric.redeals", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// ledger collects what a run attempted, what failed, and the metrics.
type ledger struct {
	traced    bool
	attempted int64
	failures  []string
	values    map[string]float64
	notes     map[string]string
	// info holds labelled figures printed for people (sample counts,
	// fail_ratio, digests) that are not part of the JSON metrics.
	info []string
}

func newLedger(traced bool) *ledger {
	return &ledger{traced: traced, values: map[string]float64{}, notes: map[string]string{}}
}

func (l *ledger) attempt(n int) { l.attempted += int64(n) }

func (l *ledger) fail(format string, args ...any) {
	l.failures = append(l.failures, fmt.Sprintf(format, args...))
}

func (l *ledger) set(name string, v float64, note string) {
	l.values[name] = v
	if note != "" {
		l.notes[name] = note
	}
}

func (l *ledger) infof(format string, args ...any) {
	l.info = append(l.info, fmt.Sprintf(format, args...))
}

func (l *ledger) defs() []metricDef {
	if l.traced {
		return perLayer
	}
	return endToEnd
}

// result builds the JSON line; every metric of the run's kind must be set.
func (l *ledger) result() (result, error) {
	res := result{
		Attempted: l.attempted,
		Failed:    int64(len(l.failures)),
		Metrics:   map[string]metricValue{},
	}
	var missing []string
	for _, d := range l.defs() {
		v, ok := l.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return result{}, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if res.Attempted < 1 {
		return result{}, fmt.Errorf("no operation attempted")
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// print writes the human-readable report.
func (l *ledger) print(w io.Writer, workload string, seed uint64) {
	kind := "end-to-end (untraced)"
	if l.traced {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d: %s metrics\n", workload, seed, kind)
	for _, d := range l.defs() {
		dir := map[string]string{"lower": "lower is better", "higher": "higher is better"}[d.dir]
		note := strings.TrimSpace(dir + "; " + l.notes[d.name])
		note = strings.Trim(note, "; ")
		fmt.Fprintf(w, "  %-28s %16.6f %-6s %s\n", d.name, l.values[d.name], d.unit, note)
	}
	ratio := 0.0
	if l.attempted > 0 {
		ratio = float64(len(l.failures)) / float64(l.attempted)
	}
	fmt.Fprintf(w, "  %-28s %16.6f %-6s failed %d of %d attempted operations\n", "fail_ratio", ratio, "ratio", len(l.failures), l.attempted)
	sort.Strings(l.info)
	for _, s := range l.info {
		fmt.Fprintf(w, "  %s\n", s)
	}
}
