package sim

import (
	"context"
	"math"
	"math/rand/v2"

	"choir/internal/exec"
	"choir/internal/geo"
	"choir/internal/lora"
	"choir/internal/sensor"
)

// RequiredTeamSize returns how many co-located members must pool power for
// a team at distance d to clear the minimum-rate decode threshold, capped
// at maxTeam (0 when a single client suffices).
func RequiredTeamSize(d float64, maxTeam int) int {
	pl := UrbanChannel()
	rx := ReceiverConfig()
	snr := ClientPowerDBm - pl.LossDB(d, nil) - rx.NoiseFloorDBm
	thr := DemodThresholdDB(lora.SF12)
	if snr >= thr {
		return 1
	}
	need := int(math.Ceil(math.Pow(10, (thr-snr)/10)))
	if need > maxTeam {
		return maxTeam
	}
	return need
}

// Fig10Resolution reproduces Fig. 10: the average normalized sensor-data
// error per user versus the team's distance from the base station, for
// temperature and humidity. Farther teams need more members to be heard at
// all; more members span more of the field and share fewer most-significant
// bits, so resolution degrades gracefully with distance. The (distance ×
// trial) grid fans out across workers goroutines (<= 0 uses every CPU);
// both sensor kinds reuse each trial's random stream so the comparison
// stays paired, and results are identical for any worker count. Once ctx
// fires no new trial starts and the context's error is returned instead of
// a partial figure.
func Fig10Resolution(ctx context.Context, distances []float64, trials int, seed uint64, workers int) (*Figure, error) {
	fig := &Figure{
		ID:     "Fig 10",
		Title:  "sensor-data resolution vs distance",
		XLabel: "distance (m)",
		YLabel: "avg normalized error per user",
	}
	b := geo.NewBuilding(geo.DefaultBuilding(geo.Point{}), rand.New(rand.NewPCG(seed, 0xB11D)))
	kinds := []sensor.Kind{sensor.Humidity, sensor.Temperature}
	fields := []sensor.Field{sensor.HumidityField(), sensor.TemperatureField()}
	// One task per (distance, trial); each returns the per-team errors of
	// every kind, drawn from identical per-kind random streams.
	perTrial, err := exec.Map(ctx, exec.NewPool(workers), len(distances)*trials, func(i int) [][]float64 {
		di := i / trials
		trial := i % trials
		team := RequiredTeamSize(distances[di], 30)
		out := make([][]float64, len(kinds))
		for ki, f := range fields {
			rng := rand.New(rand.NewPCG(exec.DeriveSeed(seed, uint64(di), uint64(trial)), 0xF16_10))
			for _, g := range sensor.Group(b, sensor.GroupByCenterDistance, team, rng) {
				if len(g) < team {
					continue
				}
				e, _ := sensor.TeamError(f, b, g, rng)
				out[ki] = append(out[ki], e)
			}
		}
		return out
	})
	if err != nil {
		return nil, err
	}
	for ki, kind := range kinds {
		var s Series
		s.Name = kind.String()
		for di, d := range distances {
			var mean float64
			cnt := 0
			for trial := 0; trial < trials; trial++ {
				for _, e := range perTrial[di*trials+trial][ki] {
					mean += e
					cnt++
				}
			}
			if cnt > 0 {
				mean /= float64(cnt)
			}
			s.X = append(s.X, d)
			s.Y = append(s.Y, mean)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig11Grouping reproduces Fig. 11(a): the reconstruction error of team
// transmissions under the three grouping strategies, for temperature and
// humidity. The (strategy × trial) grid fans out across workers
// goroutines (<= 0 uses every CPU) with the same paired-stream and
// order-fixed reduction and cancellation contract as Fig10Resolution.
func Fig11Grouping(ctx context.Context, teamSize, trials int, seed uint64, workers int) (*Figure, error) {
	fig := &Figure{
		ID:     "Fig 11(a)",
		Title:  "sensor-data error by grouping strategy",
		XLabel: "strategy(0=random,1=floor,2=center-distance)",
		YLabel: "normalized error",
	}
	b := geo.NewBuilding(geo.DefaultBuilding(geo.Point{}), rand.New(rand.NewPCG(seed, 0xB11A)))
	kinds := []sensor.Kind{sensor.Humidity, sensor.Temperature}
	fields := []sensor.Field{sensor.HumidityField(), sensor.TemperatureField()}
	strategies := []sensor.GroupStrategy{sensor.GroupRandom, sensor.GroupByFloor, sensor.GroupByCenterDistance}
	perTrial, err := exec.Map(ctx, exec.NewPool(workers), len(strategies)*trials, func(i int) [][]float64 {
		si := i / trials
		trial := i % trials
		out := make([][]float64, len(kinds))
		for ki, f := range fields {
			rng := rand.New(rand.NewPCG(exec.DeriveSeed(seed, uint64(si), uint64(trial)), 0xF16_11))
			for _, g := range sensor.Group(b, strategies[si], teamSize, rng) {
				e, _ := sensor.TeamError(f, b, g, rng)
				out[ki] = append(out[ki], e)
			}
		}
		return out
	})
	if err != nil {
		return nil, err
	}
	for ki, kind := range kinds {
		var s Series
		s.Name = kind.String()
		for si := range strategies {
			var sum float64
			cnt := 0
			for trial := 0; trial < trials; trial++ {
				for _, e := range perTrial[si*trials+trial][ki] {
					sum += e
					cnt++
				}
			}
			s.X = append(s.X, float64(si))
			s.Y = append(s.Y, sum/float64(cnt))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}
