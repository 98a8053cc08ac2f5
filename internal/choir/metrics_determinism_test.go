package choir_test

// Pins the observability layer's determinism guarantee (DESIGN.md §10):
// enabling metrics must not change what the decoder produces, bit for bit.
// Uses the golden fixtures as inputs so the comparison covers collisions,
// team frames and faulted captures.

import (
	"path/filepath"
	"testing"

	"choir/internal/obs"
	"choir/internal/trace"
)

func TestMetricsDoNotChangeDecodeResults(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("metrics unexpectedly enabled at test start")
	}
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			h, samples, err := trace.ReadFile(filepath.Join(goldenDir(t), c.name+".iq"))
			if err != nil {
				t.Fatalf("reading fixture (run TestGoldenTraces with -update to regenerate): %v", err)
			}

			off := decodeReport(h, samples, c.team)
			obs.Enable()
			on := decodeReport(h, samples, c.team)
			obs.Disable()

			if off != on {
				t.Errorf("decode result depends on metrics state\n--- metrics off ---\n%s--- metrics on ---\n%s", off, on)
			}
		})
	}
}
