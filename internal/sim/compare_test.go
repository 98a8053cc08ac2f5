package sim

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"choir/internal/backend"
	"choir/internal/fault"
	"choir/internal/lora"
)

const goldenGlob = "../choir/testdata/golden/*.iq"

// latencyFree returns res's rows with DecodeNs zeroed: everything in them
// that is a function of the configuration.
func latencyFree(res *CompareResult) []CompareRow {
	if res == nil {
		return nil
	}
	rows := append([]CompareRow(nil), res.Rows...)
	for i := range rows {
		rows[i].DecodeNs = 0
	}
	return rows
}

// TestCompareDeterministicAcrossWorkers pins the harness's determinism
// contract over alternative backends: the same configuration — golden
// fixtures, synthesized collisions, and a fault sweep — produces equal rows
// (latency aside) at GOMAXPROCS 1 and 4.
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

	// The run must have exercised real work for the equality to mean
	// anything: one row per backend and capture group, every capture
	// decoded, and some payloads recovered.
	groups := len(cfg.Fixtures) + 1 + len(cfg.Classes)*len(cfg.Intensities)
	if len(serial.Rows) != len(cfg.Backends)*groups {
		t.Fatalf("%d rows for %d backends x %d capture groups", len(serial.Rows), len(cfg.Backends), groups)
	}
	wantTrials := len(cfg.Fixtures) + cfg.Trials + len(cfg.Classes)*len(cfg.Intensities)*cfg.FaultTrials
	trials := map[string]int{}
	for i, r := range serial.Rows {
		trials[r.Backend] += r.Trials
		if r.PayloadsExpected == 0 {
			t.Errorf("%s row %d: offered no ground-truth payloads", r.Backend, i)
		}
		if r.DecodeNs <= 0 {
			t.Errorf("%s row %d: no decode time recorded", r.Backend, i)
		}
	}
	for _, name := range cfg.Backends {
		if trials[name] != wantTrials {
			t.Errorf("%s: decoded %d captures, want %d", name, trials[name], wantTrials)
		}
	}
	if clean := serial.Rows[len(cfg.Fixtures)]; clean.Backend != "relaxed" || clean.PayloadsRecovered == 0 {
		t.Errorf("relaxed backend recovered nothing at 20 dB — harness is miswired: %+v", clean)
	}

	if s, p := latencyFree(serial), latencyFree(parallel); !reflect.DeepEqual(s, p) {
		t.Fatalf("comparison depends on the width\nGOMAXPROCS 1: %+v\nGOMAXPROCS 4: %+v", s, p)
	}
}

// TestFaultSweepZeroIntensityMatchesUnfaulted: inside one Compare run,
// every fault class's zero-intensity row equals the clean-trial row,
// because both decode the same scenario seeds and intensity 0 leaves the
// samples untouched.
func TestFaultSweepZeroIntensityMatchesUnfaulted(t *testing.T) {
	if testing.Short() {
		t.Skip("IQ-level fault grid skipped in -short mode")
	}
	res, err := Compare(context.Background(), CompareConfig{
		Backends:    []string{"choir"},
		PayloadLen:  8,
		Users:       2,
		SNRDB:       25,
		Trials:      3,
		Intensities: []float64{0, 0.5},
		FaultTrials: 3,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := latencyFree(res)
	clean := rows[0]
	if clean.Fault != nil || clean.Trials != 3 {
		t.Fatalf("first row is not the clean trials: %+v", clean)
	}
	anchors := 0
	for _, r := range rows[1:] {
		if r.Fault.Intensity() != 0 {
			continue
		}
		anchors++
		r.Fault = nil
		if !reflect.DeepEqual(r, clean) {
			t.Errorf("zero-intensity row %+v != clean row %+v", r, clean)
		}
	}
	if anchors != len(fault.Classes()) {
		t.Errorf("%d zero-intensity rows for %d fault classes", anchors, len(fault.Classes()))
	}
}

// TestFaultSweepDeterministicAcrossWorkers pins the fault figure's
// determinism: the fault-only grid that choir-sim -exp faultsweep runs
// yields equal rows (latency aside) and an equal figure at GOMAXPROCS 1
// and 4.
func TestFaultSweepDeterministicAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := CompareConfig{
		Backends:    []string{"choir"},
		PayloadLen:  8,
		Users:       2,
		SNRDB:       25,
		Classes:     []fault.Class{fault.Clip, fault.DropBurst},
		Intensities: []float64{0, 0.5},
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
	fig := serial.FaultFigure("choir")
	if len(fig.Series) != len(cfg.Classes) {
		t.Fatalf("%d fault series for %d classes", len(fig.Series), len(cfg.Classes))
	}
	for _, s := range fig.Series {
		if len(s.Y) != len(cfg.Intensities) {
			t.Fatalf("%s: %d points for %d intensities", s.Name, len(s.Y), len(cfg.Intensities))
		}
	}
	if s, p := latencyFree(serial), latencyFree(parallel); !reflect.DeepEqual(s, p) {
		t.Fatalf("fault rows depend on the width\nGOMAXPROCS 1: %+v\nGOMAXPROCS 4: %+v", s, p)
	}
	if p := parallel.FaultFigure("choir"); !reflect.DeepEqual(fig, p) {
		t.Fatalf("fault figure depends on the width\nGOMAXPROCS 1: %+v\nGOMAXPROCS 4: %+v", fig, p)
	}
}

// TestFaultSweepValidation pins fail-fast validation of a fault-only grid:
// an intensity outside [0, 1], no trials per cell, or no intensities are
// configuration errors.
func TestFaultSweepValidation(t *testing.T) {
	base := CompareConfig{
		Backends:    []string{"choir"},
		PayloadLen:  8,
		Users:       2,
		SNRDB:       25,
		Classes:     []fault.Class{fault.Clip},
		Intensities: []float64{0.5},
		FaultTrials: 1,
		Seed:        1,
	}
	for name, mutate := range map[string]func(*CompareConfig){
		"intensity above 1":  func(c *CompareConfig) { c.Intensities = []float64{1.5} },
		"negative intensity": func(c *CompareConfig) { c.Intensities = []float64{-0.1} },
		"no trials":          func(c *CompareConfig) { c.FaultTrials = 0 },
		"no intensities":     func(c *CompareConfig) { c.Intensities = nil },
	} {
		cfg := base
		mutate(&cfg)
		if _, err := Compare(context.Background(), cfg); err == nil {
			t.Errorf("%s: expected configuration error", name)
		}
	}
}

// TestFaultSweepSevereTruncationFails guards the fault figure's
// usefulness: the unfaulted anchor must actually decode its collisions, and
// a severe fault must not (a fully truncated capture cannot possibly
// decode).
func TestFaultSweepSevereTruncationFails(t *testing.T) {
	res, err := Compare(context.Background(), CompareConfig{
		Backends:    []string{"choir"},
		PayloadLen:  8,
		Users:       2,
		SNRDB:       25,
		Classes:     []fault.Class{fault.Truncate},
		Intensities: []float64{0, 1},
		FaultTrials: 3,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	fig := res.FaultFigure("choir")
	if len(fig.Series) != 1 || fig.Series[0].Name != "truncate" {
		t.Fatalf("fault figure series %+v, want one truncate series", fig.Series)
	}
	s := fig.Series[0]
	if s.Y[0] < 0.5 {
		t.Errorf("unfaulted anchor recovered only %g of payloads", s.Y[0])
	}
	if s.Y[1] != 0 {
		t.Errorf("full truncation still recovered %g of payloads", s.Y[1])
	}
}

// TestFaultSweepDefaultsPHY ensures the zero-valued PHY falls back to the
// evaluation's parameters rather than failing validation.
func TestFaultSweepDefaultsPHY(t *testing.T) {
	_, err := Compare(context.Background(), CompareConfig{
		Backends:    []string{"choir"},
		PayloadLen:  8,
		Users:       2,
		SNRDB:       25,
		Classes:     []fault.Class{fault.Clip},
		Intensities: []float64{0},
		FaultTrials: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// lateCancelCtx has fired — Done is closed — but its Err reads nil for the
// first two polls: a cancellation that lands after a one-index fan-out's
// last poll (the one before it starts and the one after the caller takes
// index 0), while that index runs.
type lateCancelCtx struct {
	context.Context
	done  chan struct{}
	polls atomic.Int32
}

func newLateCancelCtx() *lateCancelCtx {
	c := &lateCancelCtx{Context: context.Background(), done: make(chan struct{})}
	close(c.done)
	return c
}

func (c *lateCancelCtx) Done() <-chan struct{} { return c.done }

func (c *lateCancelCtx) Err() error {
	if c.polls.Add(1) <= 2 {
		return nil
	}
	return context.Canceled
}

// TestSweepsFinishStartedDecodes pins the trial sweeps' cancellation
// contract (trialCtx): a cancel stops new trials, but a started decode runs
// to completion, so a sweep either returns the context's error or the
// result it returns without one.
func TestSweepsFinishStartedDecodes(t *testing.T) {
	cal := fastCal(108)
	cal.MaxUsers, cal.Trials = 1, 1
	for _, tc := range []struct {
		name string
		run  func(context.Context) (any, error)
	}{
		// SuccessTable's engine, without the memo cache, so both runs decode.
		{"SuccessTable", func(ctx context.Context) (any, error) {
			table, err := successTable(ctx, cal)
			return table, err
		}},
		{"Fig7Stability", func(ctx context.Context) (any, error) {
			fig, err := Fig7Stability(ctx, 1, 7)
			return fig, err
		}},
		{"Compare", func(ctx context.Context) (any, error) {
			res, err := Compare(ctx, CompareConfig{
				Backends: []string{"choir"}, PayloadLen: 8, Users: 2, SNRDB: 20, Trials: 1, Seed: 7,
			})
			return latencyFree(res), err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := tc.run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			got, err := tc.run(newLateCancelCtx())
			switch {
			case err != nil:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("late cancel returned %v, want context.Canceled or success", err)
				}
			case !reflect.DeepEqual(got, want):
				t.Errorf("late cancel reported success with a cut-short decode:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestCompareGoldenFixtures runs every registered backend over the full
// golden-fixture set — the -exp compare smoke. The reference choir
// backend must recover every ground-truth payload from the clean fixtures;
// alternative backends must at least hold the two-user clean collision
// (the registry round-trip gate, re-checked here through the harness).
func TestCompareGoldenFixtures(t *testing.T) {
	paths, err := filepath.Glob(goldenGlob)
	if err != nil {
		t.Fatal(err)
	}
	// Clean fixtures only: the fault_* captures are adversarial by design
	// and team_sf8 needs the team decoder, so they gate nothing here
	// beyond "no panic, typed errors" — which the deterministic test above
	// already covers by running the full set.
	var clean []CompareFixture
	var names []string
	for _, path := range paths {
		name := filepath.Base(path)
		if strings.HasPrefix(name, "fault_") || strings.HasPrefix(name, "team_") {
			continue
		}
		fx, err := LoadCompareFixtures(path)
		if err != nil {
			t.Fatal(err)
		}
		clean = append(clean, fx...)
		names = append(names, name)
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
	if len(res.Rows) != len(backend.Names())*len(clean) {
		t.Fatalf("got %d rows for %d registered backends x %d fixtures", len(res.Rows), len(backend.Names()), len(clean))
	}
	recovered := map[string]int{}
	for i, r := range res.Rows {
		recovered[r.Backend] += r.PayloadsRecovered
		if r.Backend == "choir" && r.PayloadsRecovered != r.PayloadsExpected {
			t.Errorf("choir backend lost golden payloads of %s: %d/%d %v",
				names[i%len(clean)], r.PayloadsRecovered, r.PayloadsExpected, r.Errors)
		}
	}
	for name, n := range recovered {
		if n == 0 {
			t.Errorf("%s backend recovered nothing from clean goldens", name)
		}
	}
}

// TestCompareConfigErrors pins fail-fast validation: unknown backends,
// duplicate backends, an empty grid, an out-of-range fault intensity, and
// synthesized captures — clean or fault-only — without users or payload are
// configuration errors, not fan-out surprises.
func TestCompareConfigErrors(t *testing.T) {
	base := CompareConfig{PayloadLen: 4, Users: 2, SNRDB: 20, Trials: 1, Seed: 1}
	for name, mutate := range map[string]func(*CompareConfig){
		"unknown backend":   func(c *CompareConfig) { c.Backends = []string{"nope"} },
		"duplicate backend": func(c *CompareConfig) { c.Backends = []string{"choir", "choir"} },
		"empty grid":        func(c *CompareConfig) { c.Trials = 0; c.FaultTrials = 0 },
		"no users":          func(c *CompareConfig) { c.Users = 0 },
		"fault-only, no users": func(c *CompareConfig) {
			c.Trials, c.Users = 0, 0
			c.Classes, c.Intensities, c.FaultTrials = []fault.Class{fault.Clip}, []float64{0.2}, 2
		},
		"fault-only, no payload": func(c *CompareConfig) {
			c.Trials, c.PayloadLen = 0, 0
			c.Classes, c.Intensities, c.FaultTrials = []fault.Class{fault.Clip}, []float64{0.2}, 2
		},
		"intensity out of range": func(c *CompareConfig) { c.Intensities, c.FaultTrials = []float64{2}, 1 },
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
	paths, err := filepath.Glob(goldenGlob)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	for i, fx := range fixtures {
		name := filepath.Base(paths[i])
		// Fixture i is the i-th file in sorted order.
		if one, err := LoadCompareFixtures(paths[i]); err != nil || len(one) != 1 || !reflect.DeepEqual(one[0], fx) {
			t.Errorf("fixture %d is not %s (%v)", i, name, err)
		}
		if len(fx.Samples) == 0 || fx.PayloadLen <= 0 || fx.Params.SF == 0 {
			t.Errorf("%s: incomplete fixture: %d samples, len %d, SF %d",
				name, len(fx.Samples), fx.PayloadLen, fx.Params.SF)
		}
		if len(fx.Truth) == 0 {
			t.Errorf("%s: no ground-truth payloads in header", name)
		}
		for _, p := range fx.Truth {
			if len(p) != fx.PayloadLen {
				t.Errorf("%s: truth payload length %d != header %d", name, len(p), fx.PayloadLen)
			}
		}
	}
	if _, err := LoadCompareFixtures(filepath.Join(t.TempDir(), "*.iq")); err == nil {
		t.Error("empty fixture directory should be an error")
	}
}
