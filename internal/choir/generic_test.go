package choir_test

import (
	"testing"

	"choir/internal/choir"
)

// TestDecisionGoldenGenericKernels is TestDecisionGolden's second run, with
// the generic kernels forced: every rendering the golden pins must print the
// same report, byte for byte, as with the CPU's kernels, which
// TestDecisionGolden holds to the golden. (It is a file of its own because
// decisions_test.go must build unmodified against older commits.)
func TestDecisionGoldenGenericKernels(t *testing.T) {
	variants := goldenVariants
	if testing.Short() {
		variants = 1
	}
	for _, c := range decisionCells {
		for v := 0; v < variants; v++ {
			want := decisionReport(c.sf, c.users, v)
			restore := choir.UseGenericKernels()
			got := decisionReport(c.sf, c.users, v)
			restore()
			if got != want {
				t.Errorf("generic kernels decide otherwise:\n%s\nthe CPU's kernels:\n%s", got, want)
			}
		}
	}
}
