package experiments

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// TestBenchMIPSCountsWarmup pins the bench-JSON throughput formula: the
// timed run simulates the warmup window too, so its instructions count.
func TestBenchMIPSCountsWarmup(t *testing.T) {
	for _, tc := range []struct {
		measured uint64
		warmup   int64
		wall     time.Duration
		want     float64
	}{
		{1_000_000, 500_000, time.Second, 1.5},
		{1_000_000, 0, time.Second, float64(1_000_000+sim.DefaultWarmup) / 1e6},
		{1_000_000, -1, time.Second, 1},
		{3_000_000, 1_000_000, 2 * time.Second, 2},
		{1_000_000, 500_000, 0, 0},
	} {
		if got := benchMIPS(tc.measured, tc.warmup, tc.wall); got != tc.want {
			t.Errorf("benchMIPS(%d, %d, %v) = %v, want %v", tc.measured, tc.warmup, tc.wall, got, tc.want)
		}
	}
}
