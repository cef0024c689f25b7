package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/config"
	"repro/internal/experiments"
)

// sweepComparisonSHA256 pins the comparison array of one small explicit
// sweep per axis — the filters-only sweep's "comparison", the generator
// sweep's "generator_comparison" and the I-side sweep's
// "iprefetch_comparison" — hashed over the array's JSON exactly as the
// response carries it. Update an entry ONLY for an intentional
// behaviour change, and say so in the commit message.
var sweepComparisonSHA256 = map[string]string{
	"filters":    "436e84e6428261236a2c3f1728487d2aad7519a0e7f7b9b250267286df94356a",
	"generators": "d162332d27fa07c627ff36a6f61f48011113385d2307a247ca315ff429317f7d",
	"iprefetch":  "3fc1917b00c768fec0d54fc071725c14af5243c6353aa19d3e67882e9040730a",
}

func TestSweepComparisonPinned(t *testing.T) {
	const base = `"benchmarks":["mcf","gzip"],"filters":["none","pa","perceptron"],"instructions":4000,"warmup":1000`
	sweeps := map[string]struct {
		body  string
		field string
	}{
		"filters":    {`{` + base + `}`, "comparison"},
		"generators": {`{` + base + `,"generators":["nsp","sdp"]}`, "generator_comparison"},
		"iprefetch":  {`{` + base + `,"iprefetch":["nextline","mana"]}`, "iprefetch_comparison"},
	}
	_, ts := newTestServer(t, Config{QueueDepth: 8, MaxConcurrent: 2, Workers: 4})
	for axis, sw := range sweeps {
		status, body := post(t, ts.URL, "/v1/sweep", sw.body)
		if status != 200 {
			t.Fatalf("%s sweep: status = %d (body %s)", axis, status, body)
		}
		var resp map[string]json.RawMessage
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		rows := resp[sw.field]
		if len(rows) == 0 {
			t.Fatalf("%s sweep: no %q array in %s", axis, sw.field, body)
		}
		sum := sha256.Sum256(rows)
		if got := hex.EncodeToString(sum[:]); got != sweepComparisonSHA256[axis] {
			t.Errorf("%s sweep: %s sha256 = %s, want %s\n%s", axis, sw.field, got, sweepComparisonSHA256[axis], rows)
		}
	}
}

// TestSweepStandardComparisonBaseMatchesMachine pins the comparison
// base rule on a standard sweep, which holds several unfiltered cells of
// different machines for one benchmark: each row's IPC delta is against
// the cell whose config equals its own with the filter set to none, so
// the 8KB and 32KB pa rows each take their own machine's none cell.
func TestSweepStandardComparisonBaseMatchesMachine(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: 8, MaxConcurrent: 2, Workers: 4})
	status, body := post(t, ts.URL, "/v1/sweep",
		`{"standard":true,"benchmarks":["mcf"],"instructions":3000,"warmup":1000,"seed":1}`)
	if status != 200 {
		t.Fatalf("standard sweep: status = %d (body %s)", status, body)
	}
	var resp SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	p := experiments.Params{Instructions: 3000, Warmup: 1000, Seed: 1}
	ipc := func(cfg config.Config) float64 {
		t.Helper()
		r, err := p.RunSim(context.Background(), "mcf", cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.IPC()
	}
	for _, machine := range []struct {
		name string
		cfg  config.Config
	}{{"8KB", config.Default8K()}, {"32KB", config.Default32K()}} {
		pa, none := ipc(machine.cfg.WithFilter(config.FilterPA)), ipc(machine.cfg.WithFilter(config.FilterNone))
		found := false
		for _, row := range resp.Comparison {
			if row.Filter == "pa" && row.IPC == pa && row.IPCDelta == pa-none {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no pa row with IPC %g and delta %g against its own none cell (IPC %g): %+v",
				machine.name, pa, pa-none, none, resp.Comparison)
		}
	}
}
