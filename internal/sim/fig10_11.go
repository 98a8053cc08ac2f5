package sim

import (
	"context"
	"math"
	"math/rand/v2"

	"choir/internal/ctxutil"
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
// bits, so resolution degrades gracefully with distance. Each (distance,
// trial) draws from its own derived seed, and both sensor kinds reuse that
// stream so the comparison stays paired. The grid runs serially: a whole
// figure takes milliseconds. Once ctx fires no new trial starts and the
// context's error is returned instead of a partial figure.
func Fig10Resolution(ctx context.Context, distances []float64, trials int, seed uint64) (*Figure, error) {
	ctx = ctxutil.Background(ctx)
	fig := &Figure{
		ID:     "Fig 10",
		Title:  "sensor-data resolution vs distance",
		XLabel: "distance (m)",
		YLabel: "avg normalized error per user",
	}
	b := geo.NewBuilding(geo.DefaultBuilding(geo.Point{}), rand.New(rand.NewPCG(seed, 0xB11D)))
	kinds := []sensor.Kind{sensor.Humidity, sensor.Temperature}
	fields := []sensor.Field{sensor.HumidityField(), sensor.TemperatureField()}
	fig.Series = make([]Series, len(kinds))
	for ki, kind := range kinds {
		fig.Series[ki].Name = kind.String()
	}
	for di, d := range distances {
		team := RequiredTeamSize(d, 30)
		sum := make([]float64, len(kinds))
		cnt := make([]int, len(kinds))
		for trial := 0; trial < trials; trial++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for ki, f := range fields {
				rng := rand.New(rand.NewPCG(exec.DeriveSeed(seed, uint64(di), uint64(trial)), 0xF16_10))
				for _, g := range sensor.Group(b, sensor.GroupByCenterDistance, team, rng) {
					if len(g) < team {
						continue
					}
					e, _ := sensor.TeamError(f, b, g, rng)
					sum[ki] += e
					cnt[ki]++
				}
			}
		}
		for ki := range kinds {
			if cnt[ki] > 0 {
				sum[ki] /= float64(cnt[ki])
			}
			fig.Series[ki].X = append(fig.Series[ki].X, d)
			fig.Series[ki].Y = append(fig.Series[ki].Y, sum[ki])
		}
	}
	return fig, nil
}

// Fig11Grouping reproduces Fig. 11(a): the reconstruction error of team
// transmissions under the three grouping strategies, for temperature and
// humidity, with the same paired streams, serial grid and cancellation
// contract as Fig10Resolution.
func Fig11Grouping(ctx context.Context, teamSize, trials int, seed uint64) (*Figure, error) {
	ctx = ctxutil.Background(ctx)
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
	fig.Series = make([]Series, len(kinds))
	for ki, kind := range kinds {
		fig.Series[ki].Name = kind.String()
	}
	for si, strategy := range strategies {
		sum := make([]float64, len(kinds))
		cnt := make([]int, len(kinds))
		for trial := 0; trial < trials; trial++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for ki, f := range fields {
				rng := rand.New(rand.NewPCG(exec.DeriveSeed(seed, uint64(si), uint64(trial)), 0xF16_11))
				for _, g := range sensor.Group(b, strategy, teamSize, rng) {
					e, _ := sensor.TeamError(f, b, g, rng)
					sum[ki] += e
					cnt[ki]++
				}
			}
		}
		for ki := range kinds {
			fig.Series[ki].X = append(fig.Series[ki].X, float64(si))
			fig.Series[ki].Y = append(fig.Series[ki].Y, sum[ki]/float64(cnt[ki]))
		}
	}
	return fig, nil
}
