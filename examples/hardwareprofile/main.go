// Command hardwareprofile characterizes a population of LP-WAN client
// radios the way the paper's Fig. 7 does — and then goes one step further
// with this library's SFD extension: for each board it splits the measured
// aggregate offset into its carrier-frequency and timing components using
// LoRa's down-chirp sync field, something the aggregate-only design of the
// paper cannot do.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"
	"os"

	"choir"
)

func main() {
	// Fig. 7(a,b): offset diversity across 30 boards.
	fig := choir.Fig7Offsets(30, 1)
	fig.Fprint(os.Stdout)
	fmt.Println()

	// Per-board CFO/timing split via the SFD (library extension).
	phy := choir.DefaultPHY()
	phy.SFDLen = 2
	modem, err := choir.NewModem(phy)
	if err != nil {
		log.Fatal(err)
	}
	dec, err := choir.NewDecoder(choir.DefaultDecoderConfig(phy))
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewPCG(7, 7))
	pop := choir.DefaultPopulation()
	boards := choir.NewPopulation(6, pop, rng)
	binHz := phy.Bandwidth / float64(phy.N())

	fmt.Println("per-board offset split (measured via up/down-chirp duality):")
	fmt.Println("board   true CFO      est CFO    |   true timing    est timing")
	for _, b := range boards {
		iq, whole := b.Transmit(modem, []byte("profile!"), pop.CarrierHz)
		sig := choir.Combine(phy.FrameSamples(8)+phy.N(),
			[]choir.Emission{{Samples: iq, StartSample: whole, Gain: 1}},
			choir.ChannelConfig{NoiseFloorDBm: -50}, rng)
		splits, err := dec.SplitOffsets(sig, 35)
		if err != nil {
			fmt.Printf("tx%-3d  (split failed: %v)\n", b.ID, err)
			continue
		}
		s := splits[0]
		trueCFO := b.Osc.CFO(pop.CarrierHz)
		trueDT := b.TimingOffset * 1e6
		fmt.Printf("tx%-3d  %8.1f Hz  %8.1f Hz  |  %8.2f us  %8.2f us\n",
			b.ID, trueCFO, s.CFOBins*binHz, trueDT, s.TimingSamples/phy.Bandwidth*1e6)
	}

	// Fig. 7(c,d): stability of the tracked offsets across SNR regimes.
	stability, err := choir.Fig7Stability(context.Background(), 3, 7, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	stability.Fprint(os.Stdout)

}
