package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// filterComparisonSHA256 pins the plain filter comparison rows — the
// paper's ten benchmarks × {none, pa, perceptron} at
// Params{Instructions: 10_000, Warmup: 2_000, Seed: 1} — hashed over
// their JSON. The generator and I-side zoos carry their own pins; this
// one covers the row builder of the filter axis itself (delta base,
// coverage, sort order). Update it ONLY for an intentional behaviour
// change, and say so in the commit message.
const filterComparisonSHA256 = "d11730f2212628a76b32e7f834ad9279469d5c87cefa37fd3f5fb207568660bc"

func TestFilterComparisonFingerprintPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("ten-benchmark comparison is a few seconds; skipped with -short")
	}
	for _, workers := range []int{1, 4} {
		p := &Params{Instructions: 10_000, Warmup: 2_000, Seed: 1}
		c, err := p.Compare(context.Background(), Filters, []string{"pa", "perceptron"}, nil, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		blob, err := json.Marshal(c.Filters)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != filterComparisonSHA256 {
			t.Errorf("workers=%d fingerprint = %s, want %s", workers, got, filterComparisonSHA256)
		}
	}
}
