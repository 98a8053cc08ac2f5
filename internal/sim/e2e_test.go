package sim

import (
	"context"
	"strings"
	"testing"

	"choir/internal/channel"
	"choir/internal/lora"
)

func TestEndToEndDeployment(t *testing.T) {
	cfg := DefaultE2E()
	rep, err := EndToEnd(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.InRange+rep.Teamed+rep.Unreachable != cfg.Sensors {
		t.Errorf("sensor accounting broken: %s", rep)
	}
	if rep.InRange == 0 {
		t.Errorf("no sensors in range: %s", rep)
	}
	if rep.IndividualExpected == 0 {
		t.Error("no individual rounds ran")
	}
	// Most in-range payloads decode at IQ level.
	if float64(rep.IndividualDelivered) < 0.5*float64(rep.IndividualExpected) {
		t.Errorf("individual delivery %d/%d too low", rep.IndividualDelivered, rep.IndividualExpected)
	}
	// Teams extend coverage beyond the individual range.
	if rep.TeamsExpected == 0 || rep.TeamsDelivered < rep.TeamsExpected/2 {
		t.Errorf("team delivery %d/%d too low", rep.TeamsDelivered, rep.TeamsExpected)
	}
	if rep.MaxServedDistance <= 0 {
		t.Error("no served distance recorded")
	}
	if !strings.Contains(rep.String(), "e2e:") {
		t.Error("String() malformed")
	}
}

func TestEndToEndTeamsExtendCoverage(t *testing.T) {
	// Find a seed where teams form and deliver; coverage must then exceed
	// the farthest individually-served sensor's plausible ceiling.
	// One client at the minimum rate: the paper's ~1 km baseline.
	single := channel.RangeForSNR(DemodThresholdDB(lora.SF12), ClientPowerDBm, UrbanChannel(), ReceiverConfig())
	for seed := uint64(1); seed <= 8; seed++ {
		cfg := DefaultE2E()
		cfg.Seed = seed
		rep, err := EndToEnd(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.TeamsDelivered > 0 && rep.MaxServedDistance > single {
			t.Logf("seed %d: %s (single-client range %.0f m)", seed, rep, single)
			return
		}
	}
	t.Error("no seed produced a delivered team beyond single-client range")
}

func TestEndToEndValidation(t *testing.T) {
	if _, err := EndToEnd(context.Background(), E2EConfig{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestEndToEndMoreBasesImproveCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("ten full deployments skipped in -short mode")
	}
	// The paper deployed three base stations; more sites mean better best-
	// link SNRs, so fewer sensors should be unreachable on average.
	totalUnreach := func(bases int) int {
		sum := 0
		for seed := uint64(1); seed <= 5; seed++ {
			cfg := DefaultE2E()
			cfg.Seed = seed
			cfg.Bases = bases
			rep, err := EndToEnd(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			sum += rep.Unreachable
		}
		return sum
	}
	one := totalUnreach(1)
	three := totalUnreach(3)
	if three >= one {
		t.Errorf("3 bases left %d sensors unreachable vs %d with 1 base", three, one)
	}
}
