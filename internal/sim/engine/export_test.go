package engine

// RandomConfig is the equivalence property's scenario generator, for the
// external tests in this directory.
var RandomConfig = randomConfig

// SplitRows counts the node-grid rows of cfg's city whose nodes fall in
// more than one band when the event driver runs it w bands wide.
func SplitRows(cfg Config, w int) int {
	if cfg.Gateways == 0 {
		cfg.Gateways = 1
	}
	c := newCore(cfg)
	bands := bandsOf(c, min(w, c.gwRows))
	split := 0
	for lo := 0; lo < len(c.nodes); lo += c.grid {
		first := ownersOf(bands, int32(lo))[0]
		for i := lo + 1; i < min(lo+c.grid, len(c.nodes)); i++ {
			if ownersOf(bands, int32(i))[0] != first {
				split++
				break
			}
		}
	}
	return split
}

// EventMatchesSlot holds both drivers to the plain model (model_test.go),
// for the external tests that run it beside receivers from other packages.
var EventMatchesSlot = eventMatchesSlot

// DimSweep is the density sweep's seed tag: point pi of a sweep seeded s
// runs at exec.DeriveSeed(s, DimSweep, pi).
const DimSweep = dimSweep
