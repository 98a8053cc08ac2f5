// Command sensorfield reproduces the correlated-sensing results of
// Sec. 9.4: a four-floor building instrumented with temperature and
// humidity sensors whose readings follow a radial indoor/outdoor gradient.
// It compares the three team-grouping strategies of Fig. 11(a) and prints
// the resolution-versus-distance tradeoff of Fig. 10 — the farther a team
// must reach, the more members it needs and the fewer most-significant bits
// its members share.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"
	"os"

	"choir"
	"choir/internal/geo"
	"choir/internal/sensor"
)

func main() {
	rng := rand.New(rand.NewPCG(7, 7))
	b := geo.NewBuilding(geo.DefaultBuilding(geo.Point{}), rng)
	temp := sensor.TemperatureField()

	fmt.Printf("building: %d sensors over %d floors\n", b.NumSensors(), b.Floors)
	fmt.Println("\nsample readings (floor 0, by distance from building core):")
	for i := 0; i < b.NumSensors(); i += 9 {
		v := temp.At(b, i, rng)
		fmt.Printf("  sensor %2d: floor %d, %5.1f m from core -> %.2f C (code %#03x)\n",
			i, b.Floor(i), b.DistanceFromCenter(i), v, temp.Quantize(v))
	}

	fmt.Println("\nteam MSB overlap by grouping strategy (teams of 6):")
	for _, strat := range []sensor.GroupStrategy{sensor.GroupRandom, sensor.GroupByFloor, sensor.GroupByCenterDistance} {
		var sumBits, sumErr float64
		n := 0
		for _, team := range sensor.Group(b, strat, 6, rng) {
			e, bits := sensor.TeamError(temp, b, team, rng)
			sumBits += float64(bits)
			sumErr += e
			n++
		}
		fmt.Printf("  %-16s: %.1f shared MSBs, %.2f%% mean error\n",
			strat, sumBits/float64(n), 100*sumErr/float64(n))
	}

	ctx := context.Background()
	grouping, err := choir.Fig11Grouping(ctx, 6, 20, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	grouping.Fprint(os.Stdout)
	resolution, err := choir.Fig10Resolution(ctx, []float64{200, 600, 1000, 1400, 1800, 2200, 2600, 3000}, 5, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	resolution.Fprint(os.Stdout)
}
