package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/trace"
)

// tracedRun runs one cell with every trace kind enabled and a ring large
// enough to hold the whole run, returning the run and the tracer.
func tracedRun(t *testing.T, cfg config.Config, n, warmup int64) (*trace.Tracer, stats.Run) {
	t.Helper()
	tr := trace.New(1 << 18)
	run, err := Run(Options{
		Benchmark:       "gzip",
		Config:          cfg,
		MaxInstructions: n,
		Warmup:          warmup,
		Trace:           tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("trace ring dropped %d events; the pin must cover the whole stream", tr.Dropped())
	}
	return tr, run
}

// TestTraceStreamPinned pins the sha256 of the full JSONL event stream
// of two traced D-side cells: the default machine with PA, and the same
// machine with the prefetch buffer on. Cycle stamps, event order and
// every field are covered, so any change to the order in which the
// hierarchy emits, classifies or trains moves the hash.
func TestTraceStreamPinned(t *testing.T) {
	buffered := config.Default().WithFilter(config.FilterPA)
	buffered.Buffer.Enable = true
	for _, tc := range []struct {
		name   string
		cfg    config.Config
		events uint64
		sha    string
	}{
		{"default/pa", config.Default().WithFilter(config.FilterPA), 11018,
			"59d48bcd5aabaa8f85bdafa3dabf52e2bdd3d731ce5c196d45d9fe8d83727e59"},
		{"buffer/pa", buffered, 10052,
			"222660f2341b3ce70443f62f56378798d707c64e745e5505094136accf17c7cf"},
	} {
		tr, _ := tracedRun(t, tc.cfg, 50_000, 10_000)
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); tr.Total() != tc.events || got != tc.sha {
			t.Errorf("%s: trace stream drift: %d events sha256 %s, want %d events %s",
				tc.name, tr.Total(), got, tc.events, tc.sha)
		}
	}
}

// TestFrontendTraceEvents checks that the instruction side emits the
// same lifecycle events as the data side: fills, first references, MSHR
// merges and demand misses. With the D-side generators off (the I-side
// cell configuration) every prefetch event comes from the L1I, and
// without warmup the trace's demand misses are exactly the data and
// fetch misses the run counted.
func TestFrontendTraceEvents(t *testing.T) {
	cfg := config.Default().WithFilter(config.FilterPA).WithIPrefetch(config.IPrefetchNextLine)
	tr, run := tracedRun(t, cfg, 30_000, -1)
	counts := map[trace.Kind]uint64{}
	for _, ev := range tr.Events() {
		counts[ev.Kind]++
	}
	for _, k := range []trace.Kind{trace.KindPrefetchFill, trace.KindPrefetchRef, trace.KindPrefetchMerge} {
		if counts[k] == 0 {
			t.Errorf("no %s events from the instruction side", k)
		}
	}
	if want := run.L1DemandMisses + run.Frontend.FetchMisses; counts[trace.KindDemandMiss] != want || run.Frontend.FetchMisses == 0 {
		t.Errorf("demand_miss events = %d, want %d data + %d fetch misses",
			counts[trace.KindDemandMiss], run.L1DemandMisses, run.Frontend.FetchMisses)
	}
}
