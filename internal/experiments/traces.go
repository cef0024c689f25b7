// The traces experiment: real-trace replay through the filter zoo. A
// registered trace corpus (internal/tracefile manifest) supplies the
// benchmarks; every trace runs against the sweepable filter backends on
// the default machine exactly like the synthetic models do, so a trace
// is a first-class row in the same comparison tables. The corpus is
// registered out-of-band (pfexperiments -traces, pfserved
// -trace-manifest, or tracefile.RegisterCorpus in code).
package experiments

import (
	"context"
	"fmt"

	"repro/internal/report"
	"repro/internal/tracefile"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "traces",
		Title: "Trace corpus crossed with filter backends (real-trace replay)",
		Run: func(p *Params) (*Table, error) {
			if len(tracefile.Registered()) == 0 {
				t := report.New("Trace corpus crossed with filter backends")
				t.AddNote("no trace corpus registered; load one with pfexperiments -traces <manifest> (see docs/TRACES.md)")
				return t, nil
			}
			q, err := p.OnTraces(nil)
			if err != nil {
				return nil, err
			}
			c, err := q.Compare(context.Background(), Filters, nil, nil, 0)
			if err != nil {
				return nil, err
			}
			return c.Table(TraceTitle), nil
		},
	})
}

// OnTraces narrows p to registered trace-corpus benchmarks, so any
// comparison runs over the corpus exactly as it runs over the synthetic
// models. Empty traces selects every registered trace; unknown names
// report the registered alternatives. Params is safely copyable (the
// cache lock is package-level): the copy leaves the caller's benchmark
// set alone and still shares the process-wide run memo.
func (p *Params) OnTraces(traces []string) (*Params, error) {
	if len(traces) == 0 {
		traces = tracefile.Registered()
	}
	if len(traces) == 0 {
		return nil, fmt.Errorf("experiments: no trace corpus registered (load a manifest with tracefile.RegisterCorpus)")
	}
	for _, tr := range traces {
		if _, ok := workload.ByName(tr); !ok || !tracefile.IsTraceBench(tr) {
			return nil, fmt.Errorf("experiments: unknown trace benchmark %q (registered traces: %v)", tr, tracefile.Registered())
		}
	}
	q := *p
	q.Benchmarks = traces
	return &q, nil
}

// TraceTitle heads the corpus × filter comparison table.
const TraceTitle = "Trace corpus crossed with filters (default machine)"

// TraceCorpusTable renders a registered manifest as a report table — the
// corpus summary pfexperiments prints above the comparison.
func TraceCorpusTable(m tracefile.Manifest) *Table {
	t := report.New("Trace corpus", "benchmark", "file", "records", "format", "sha256")
	for _, e := range m.Traces {
		t.AddRow(tracefile.BenchPrefix+e.Name, e.File, report.I(e.Records), fmt.Sprintf("v%d", e.FormatVersion), e.SHA256)
	}
	t.AddNote("sha256 is the chunk-size-independent PFTC stream fingerprint (docs/TRACES.md)")
	return t
}
