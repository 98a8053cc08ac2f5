package sim

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"choir/internal/choir"
	"choir/internal/exec"
	"choir/internal/fault"
	"choir/internal/lora"
)

func faultSweepTestConfig() FaultSweepConfig {
	cfg := DefaultFaultSweep()
	cfg.Trials = 3
	cfg.Intensities = []float64{0, 0.5}
	return cfg
}

// TestFaultSweepDeterministicAcrossWorkers is the acceptance criterion:
// fanning the sweep out at GOMAXPROCS 4 must reproduce the serial run
// exactly.
func TestFaultSweepDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("two-width IQ-level sweep comparison skipped in -short mode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := faultSweepTestConfig()
	serial, err := FaultSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	parallel, err := FaultSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("GOMAXPROCS 1 vs 4 diverged:\n%+v\n%+v", serial, parallel)
	}
}

// TestFaultSweepZeroIntensityMatchesUnfaulted is the other acceptance
// criterion: at intensity 0 every fault class must reproduce the unfaulted
// decode results exactly — same scenarios, untouched samples.
func TestFaultSweepZeroIntensityMatchesUnfaulted(t *testing.T) {
	if testing.Short() {
		t.Skip("IQ-level fault sweep skipped in -short mode")
	}
	cfg := faultSweepTestConfig()
	fig, err := FaultSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Recompute the unfaulted recovery rate through the ordinary
	// (injector-free) decode path with the sweep's seed derivation.
	dec := choir.MustNew(choir.DefaultConfig(cfg.Params))
	rec, tot := 0, 0
	for trial := 0; trial < cfg.Trials; trial++ {
		scSeed := exec.DeriveSeed(cfg.Seed, uint64(trial))
		sc := Scenario{
			Params:     cfg.Params,
			PayloadLen: cfg.PayloadLen,
			SNRsDB:     repeat(cfg.SNRDB, cfg.Users),
			Seed:       scSeed,
		}
		r, n := sc.DecodeWith(dec)
		rec, tot = rec+r, tot+n
	}
	want := float64(rec) / float64(tot)

	if len(fig.Series) != len(fault.Classes()) {
		t.Fatalf("%d series for %d classes", len(fig.Series), len(fault.Classes()))
	}
	for _, s := range fig.Series {
		if s.X[0] != 0 {
			t.Fatalf("series %s does not start at intensity 0", s.Name)
		}
		if s.Y[0] != want {
			t.Errorf("series %s: zero-intensity recovery %g != unfaulted %g", s.Name, s.Y[0], want)
		}
	}
}

// TestFaultSweepSevereTruncationFails guards the sweep's usefulness: the
// unfaulted anchor must actually decode its collisions, and a severe fault
// must not (truncation to 10% of the frame cannot possibly decode).
func TestFaultSweepSevereTruncationFails(t *testing.T) {
	cfg := faultSweepTestConfig()
	cfg.Classes = []fault.Class{fault.Truncate}
	cfg.Intensities = []float64{0, 1}
	fig, err := FaultSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	if s.Y[0] < 0.5 {
		t.Errorf("unfaulted anchor recovered only %g of payloads", s.Y[0])
	}
	if s.Y[1] != 0 {
		t.Errorf("full truncation still recovered %g of payloads", s.Y[1])
	}
}

func TestFaultSweepValidation(t *testing.T) {
	bad := faultSweepTestConfig()
	bad.Trials = 0
	if _, err := FaultSweep(context.Background(), bad); err == nil {
		t.Error("Trials=0 accepted")
	}
	bad = faultSweepTestConfig()
	bad.Intensities = nil
	if _, err := FaultSweep(context.Background(), bad); err == nil {
		t.Error("empty intensity grid accepted")
	}
	bad = faultSweepTestConfig()
	bad.Intensities = []float64{2}
	if _, err := FaultSweep(context.Background(), bad); err == nil {
		t.Error("out-of-range intensity accepted")
	}
}

// TestFaultSweepDefaultsPHY ensures the zero-valued PHY falls back to the
// evaluation's parameters rather than failing validation.
func TestFaultSweepDefaultsPHY(t *testing.T) {
	cfg := faultSweepTestConfig()
	cfg.Params = lora.Params{}
	cfg.Classes = []fault.Class{fault.Clip}
	cfg.Intensities = []float64{0}
	cfg.Trials = 1
	if _, err := FaultSweep(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
}
