package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"choir/internal/dsp"
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
// bits, so resolution degrades gracefully with distance. Teams are formed
// by distance from the building's center, and a team smaller than the
// distance needs is not heard. teamErrors runs the trials; its doc gives
// their streams and the cancellation contract.
func Fig10Resolution(ctx context.Context, distances []float64, trials int, seed uint64) (*Figure, error) {
	fig := &Figure{
		ID:     "Fig 10",
		Title:  "sensor-data resolution vs distance",
		XLabel: "distance (m)",
		YLabel: "avg normalized error per user",
	}
	b := geo.NewBuilding(geo.DefaultBuilding(geo.Point{}), rand.New(rand.NewPCG(seed, 0xB11D)))
	return teamErrors(ctx, fig, b, distances, trials, seed, 0xF16_10, func(di int, rng *rand.Rand) [][]int {
		team := RequiredTeamSize(distances[di], 30)
		teams := sensor.Group(b, sensor.GroupByCenterDistance, team, rng)
		return slices.DeleteFunc(teams, func(g []int) bool { return len(g) < team })
	})
}

// Fig11Grouping reproduces Fig. 11(a): the reconstruction error of team
// transmissions of teamSize ≥ 1 members under the three grouping
// strategies, for temperature and humidity. teamErrors runs the trials, as
// for Fig10Resolution.
func Fig11Grouping(ctx context.Context, teamSize, trials int, seed uint64) (*Figure, error) {
	if teamSize < 1 {
		return nil, fmt.Errorf("sim: Fig 11(a) needs teamSize >= 1, got %d", teamSize)
	}
	fig := &Figure{
		ID:     "Fig 11(a)",
		Title:  "sensor-data error by grouping strategy",
		XLabel: "strategy(0=random,1=floor,2=center-distance)",
		YLabel: "normalized error",
	}
	b := geo.NewBuilding(geo.DefaultBuilding(geo.Point{}), rand.New(rand.NewPCG(seed, 0xB11A)))
	strategies := []sensor.GroupStrategy{sensor.GroupRandom, sensor.GroupByFloor, sensor.GroupByCenterDistance}
	return teamErrors(ctx, fig, b, []float64{0, 1, 2}, trials, seed, 0xF16_11, func(si int, rng *rand.Rand) [][]int {
		return sensor.Group(b, strategies[si], teamSize, rng)
	})
}

// teamErrors is the sweep Figs 10 and 11(a) share. Each x is a grid cell of
// trials ≥ 1 trials, and a trial forms teams of b's sensors with
// teams(cell, rng) and scores each team's transmission. A point is a sensor
// kind's mean normalized error over every team of the cell's trials, or 0
// when none was formed. A trial draws from exec.DeriveSeed(seed, cell,
// trial) under the figure's stream tag, and both kinds reuse that stream so
// the comparison stays paired. Once ctx fires no new trial starts and the
// context's error is returned instead of a partial figure.
func teamErrors(ctx context.Context, fig *Figure, b *geo.Building, xs []float64, trials int, seed, tag uint64, teams func(cell int, rng *rand.Rand) [][]int) (*Figure, error) {
	if trials < 1 {
		return nil, fmt.Errorf("sim: %s needs trials >= 1, got %d", fig.ID, trials)
	}
	kinds := []sensor.Kind{sensor.Humidity, sensor.Temperature}
	for ki, f := range []sensor.Field{sensor.HumidityField(), sensor.TemperatureField()} {
		cells, err := grid(ctx, repeat(trials, len(xs)), func(cell, trial int) []float64 {
			rng := rand.New(rand.NewPCG(exec.DeriveSeed(seed, uint64(cell), uint64(trial)), tag))
			var errs []float64
			for _, g := range teams(cell, rng) {
				e, _ := sensor.TeamError(f, b, g, rng)
				errs = append(errs, e)
			}
			return errs
		})
		if err != nil {
			return nil, err
		}
		s := Series{Name: kinds[ki].String(), X: slices.Clone(xs)}
		for _, errs := range cells {
			s.Y = append(s.Y, dsp.Mean(slices.Concat(errs...)))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}
