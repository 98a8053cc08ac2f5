package sim

import (
	"context"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"choir/internal/backend"
	"choir/internal/fault"
	"choir/internal/lora"
)

const goldenGlob = "../choir/testdata/golden/*.iq"

// TestCompareDeterministicAcrossWorkers pins the harness's determinism
// contract over alternative backends: the same configuration — golden
// fixtures, synthesized collisions, and a fault sweep — produces
// byte-identical fingerprints at GOMAXPROCS 1 and 4.
func TestCompareDeterministicAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fixtures, err := LoadCompareFixtures(goldenGlob)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CompareConfig{
		Params: lora.DefaultParams(),
		// Alternative backends only: determinism must not hinge on the
		// reference decoder.
		Backends:    []string{"relaxed", "slotshift", "superposed"},
		Fixtures:    fixtures[:2],
		PayloadLen:  6,
		Users:       2,
		SNRDB:       20,
		Trials:      3,
		Classes:     []fault.Class{fault.Clip, fault.DriftStep},
		Intensities: []float64{0.4},
		FaultTrials: 2,
		Seed:        7,
	}

	serial, err := Compare(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	parallel, err := Compare(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sf, pf := serial.Fingerprint(), parallel.Fingerprint(); sf != pf {
		t.Fatalf("comparison depends on the width\nGOMAXPROCS 1:\n%s\nGOMAXPROCS 4:\n%s", sf, pf)
	}

	// The run must have exercised real work for the fingerprint to mean
	// anything: every backend saw every capture and some payloads decoded.
	wantTrials := len(cfg.Fixtures) + cfg.Trials + len(cfg.Classes)*len(cfg.Intensities)*cfg.FaultTrials
	for _, r := range serial.Reports {
		if r.Trials != wantTrials {
			t.Errorf("%s: decoded %d captures, want %d", r.Backend, r.Trials, wantTrials)
		}
		if r.PayloadsExpected == 0 {
			t.Errorf("%s: comparison offered no ground-truth payloads", r.Backend)
		}
		if r.DecodeNs <= 0 {
			t.Errorf("%s: no decode time recorded", r.Backend)
		}
	}
	if serial.Reports[0].PayloadsRecovered == 0 {
		t.Error("relaxed backend recovered nothing at 20 dB — harness is miswired")
	}
	// Latency is the one non-deterministic column and must stay out of the
	// fingerprint.
	if strings.Contains(serial.Fingerprint(), "ns") {
		t.Error("fingerprint appears to include latency")
	}
}

// TestCompareGoldenFixtures runs every registered backend over the full
// golden-fixture set — the -compare-backends smoke. The reference choir
// backend must recover every ground-truth payload from the clean fixtures;
// alternative backends must at least hold the two-user clean collision
// (the registry round-trip gate, re-checked here through the harness).
func TestCompareGoldenFixtures(t *testing.T) {
	fixtures, err := LoadCompareFixtures(goldenGlob)
	if err != nil {
		t.Fatal(err)
	}
	// Clean fixtures only: the fault_* captures are adversarial by design
	// and team_sf8 needs the team decoder, so they gate nothing here
	// beyond "no panic, typed errors" — which the deterministic test above
	// already covers by running the full set.
	var clean []CompareFixture
	for _, fx := range fixtures {
		if strings.HasPrefix(fx.Name, "fault_") || strings.HasPrefix(fx.Name, "team_") {
			continue
		}
		clean = append(clean, fx)
	}
	if len(clean) < 3 {
		t.Fatalf("expected at least 3 clean fixtures, got %d", len(clean))
	}
	res, err := Compare(context.Background(), CompareConfig{
		Fixtures: clean,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != len(backend.Names()) {
		t.Fatalf("got %d reports for %d registered backends", len(res.Reports), len(backend.Names()))
	}
	for _, r := range res.Reports {
		switch r.Backend {
		case "choir":
			if r.PayloadsRecovered != r.PayloadsExpected {
				t.Errorf("choir backend lost golden payloads: %d/%d\n%s",
					r.PayloadsRecovered, r.PayloadsExpected, res.Fingerprint())
			}
		default:
			if r.PayloadsRecovered == 0 {
				t.Errorf("%s backend recovered nothing from clean goldens", r.Backend)
			}
		}
	}
}

// TestCompareConfigErrors pins fail-fast validation: unknown backends,
// duplicate backends, and an empty grid are configuration errors, not
// fan-out surprises.
func TestCompareConfigErrors(t *testing.T) {
	base := CompareConfig{PayloadLen: 4, Users: 2, SNRDB: 20, Trials: 1, Seed: 1}
	for name, mutate := range map[string]func(*CompareConfig){
		"unknown backend":   func(c *CompareConfig) { c.Backends = []string{"nope"} },
		"duplicate backend": func(c *CompareConfig) { c.Backends = []string{"choir", "choir"} },
		"empty grid":        func(c *CompareConfig) { c.Trials = 0; c.FaultTrials = 0 },
		"no users":          func(c *CompareConfig) { c.Users = 0 },
	} {
		cfg := base
		mutate(&cfg)
		if _, err := Compare(context.Background(), cfg); err == nil {
			t.Errorf("%s: expected configuration error", name)
		}
	}
}

// TestCompareFixtureLoader pins the loader contract: sorted order, header
// truth payloads decoded from hex, and PHY parameters carried per fixture.
func TestCompareFixtureLoader(t *testing.T) {
	fixtures, err := LoadCompareFixtures(goldenGlob)
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) != 6 {
		t.Fatalf("got %d golden fixtures, want 6", len(fixtures))
	}
	for i := 1; i < len(fixtures); i++ {
		if fixtures[i-1].Name >= fixtures[i].Name {
			t.Errorf("fixtures out of order: %q before %q", fixtures[i-1].Name, fixtures[i].Name)
		}
	}
	for _, fx := range fixtures {
		if len(fx.Samples) == 0 || fx.PayloadLen <= 0 || fx.Params.SF == 0 {
			t.Errorf("%s: incomplete fixture: %d samples, len %d, SF %d",
				fx.Name, len(fx.Samples), fx.PayloadLen, fx.Params.SF)
		}
		if len(fx.Truth) == 0 {
			t.Errorf("%s: no ground-truth payloads in header", fx.Name)
		}
		for _, p := range fx.Truth {
			if len(p) != fx.PayloadLen {
				t.Errorf("%s: truth payload length %d != header %d", fx.Name, len(p), fx.PayloadLen)
			}
		}
	}
	if _, err := LoadCompareFixtures(filepath.Join(t.TempDir(), "*.iq")); err == nil {
		t.Error("empty fixture directory should be an error")
	}
}
