package mac

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestBuildScheduleNearSensorsIndividual(t *testing.T) {
	sensors := []SensorLink{
		{ID: 1, SNRdB: 5},
		{ID: 2, SNRdB: -10},
		{ID: 3, SNRdB: 0},
	}
	sched, unreachable, err := BuildSchedule(sensors, DefaultScheduleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(unreachable) != 0 {
		t.Errorf("unreachable: %v", unreachable)
	}
	if len(sched) != 3 {
		t.Fatalf("%d slots, want 3 individual slots: %+v", len(sched), sched)
	}
	for _, e := range sched {
		if len(e.Team) != 1 {
			t.Errorf("slot %+v is not an individual slot", e)
		}
	}
}

func TestBuildScheduleFormsMinimalTeams(t *testing.T) {
	// Four sensors at -26 dB each: pooling two gives -23, four gives -20.
	// With threshold -20 and margin 1 they need ~5 members; with only 4
	// available in the group they are unreachable. At -24 dB each, four
	// members pool to -18 — reachable as one team.
	cfg := DefaultScheduleConfig()
	weak := make([]SensorLink, 4)
	for i := range weak {
		weak[i] = SensorLink{ID: i, SNRdB: -24, Correlate: 7}
	}
	sched, unreachable, err := BuildSchedule(weak, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(unreachable) != 0 {
		t.Fatalf("unreachable: %v", unreachable)
	}
	if len(sched) != 1 || len(sched[0].Team) != 4 {
		t.Fatalf("schedule %+v, want one 4-member team", sched)
	}
	if got := sched[0].PooledSNRdB; math.Abs(got-(-24+10*math.Log10(4))) > 1e-9 {
		t.Errorf("pooled SNR %.2f", got)
	}
}

func TestBuildScheduleRespectsCorrelationGroups(t *testing.T) {
	// Weak sensors in two different correlation groups must not be mixed,
	// even though pooling across groups would clear the threshold.
	sensors := []SensorLink{
		{ID: 1, SNRdB: -24, Correlate: 1},
		{ID: 2, SNRdB: -24, Correlate: 1},
		{ID: 3, SNRdB: -24, Correlate: 2},
		{ID: 4, SNRdB: -24, Correlate: 2},
	}
	cfg := DefaultScheduleConfig()
	cfg.ThresholdDB = -22
	cfg.MarginDB = 0
	sched, unreachable, err := BuildSchedule(sensors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(unreachable) != 0 {
		t.Fatalf("unreachable: %v", unreachable)
	}
	for _, e := range sched {
		if len(e.Team) == 1 {
			continue
		}
		// All members of a team share a correlation group by construction:
		// IDs 1,2 are group 1, IDs 3,4 group 2.
		first := e.Team[0] <= 2
		for _, id := range e.Team {
			if (id <= 2) != first {
				t.Errorf("team %v mixes correlation groups", e.Team)
			}
		}
	}
}

func TestBuildScheduleUnreachable(t *testing.T) {
	cfg := DefaultScheduleConfig()
	cfg.MaxTeam = 4
	sensors := []SensorLink{
		{ID: 1, SNRdB: -40, Correlate: 9},
		{ID: 2, SNRdB: -40, Correlate: 9},
	}
	sched, unreachable, err := BuildSchedule(sensors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 0 {
		t.Errorf("schedule %v for hopeless sensors", sched)
	}
	if len(unreachable) != 2 {
		t.Errorf("unreachable %v", unreachable)
	}
}

func TestBuildScheduleRejectsDuplicates(t *testing.T) {
	if _, _, err := BuildSchedule([]SensorLink{{ID: 1}, {ID: 1}}, DefaultScheduleConfig()); err == nil {
		t.Error("duplicate IDs accepted")
	}
	if _, _, err := BuildSchedule(nil, ScheduleConfig{MaxTeam: 0}); err == nil {
		t.Error("MaxTeam 0 accepted")
	}
}

func TestBuildScheduleCoverageProperty(t *testing.T) {
	// Every sensor appears exactly once: in an individual slot, a team, or
	// the unreachable list.
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0x5CED))
		n := 1 + int(seed%40)
		sensors := make([]SensorLink, n)
		for i := range sensors {
			sensors[i] = SensorLink{
				ID:        i,
				SNRdB:     -45 + rng.Float64()*60,
				Correlate: rng.IntN(4),
			}
		}
		cfg := DefaultScheduleConfig()
		cfg.MaxTeam = 1 + int(seed%10)
		sched, unreachable, err := BuildSchedule(sensors, cfg)
		if err != nil {
			return false
		}
		seen := map[int]int{}
		for _, e := range sched {
			if len(e.Team) == 0 || len(e.Team) > cfg.MaxTeam {
				return false
			}
			if e.PooledSNRdB < cfg.ThresholdDB {
				return false
			}
			for _, id := range e.Team {
				seen[id]++
			}
		}
		for _, id := range unreachable {
			seen[id]++
		}
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
