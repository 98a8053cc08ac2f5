// Command quickstart demonstrates the core of Choir in ~60 lines: two
// LP-WAN clients transmit different payloads at the same time on the same
// spreading factor — a collision a standard LoRaWAN base station cannot
// decode — and the Choir decoder disentangles both using nothing but the
// clients' natural hardware offsets, on a single antenna.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"

	"choir"
)

func main() {
	phy := choir.DefaultPHY()
	modem, err := choir.NewModem(phy)
	if err != nil {
		log.Fatal(err)
	}

	// Two clients with realistic oscillator and timing imperfections.
	rng := rand.New(rand.NewPCG(42, 1))
	pop := choir.DefaultPopulation()
	clients := choir.NewPopulation(2, pop, rng)

	payloads := [][]byte{
		[]byte("temp=23.5C"),
		[]byte("hum=47.2%%"),
	}

	// Render both frames through their radios and collide them on the
	// channel at similar receive power, plus receiver noise.
	var emissions []choir.Emission
	length := phy.FrameSamples(len(payloads[0])) + phy.N()
	for i, c := range clients {
		iq, startOffset := c.Transmit(modem, payloads[i], pop.CarrierHz)
		emissions = append(emissions, choir.Emission{
			Samples:     iq,
			StartSample: startOffset,
			Gain:        0.05, // ~26 dB SNR against the noise floor below
		})
	}
	collided := choir.Combine(length, emissions, choir.ChannelConfig{NoiseFloorDBm: -60}, rng)

	// A standard LoRa receiver sees garbage...
	if _, err := modem.Demodulate(collided, len(payloads[0])); err != nil {
		fmt.Printf("standard LoRaWAN receiver: %v\n", err)
	}

	// ...Choir separates both users.
	dec, err := choir.NewDecoder(choir.DefaultDecoderConfig(phy))
	if err != nil {
		log.Fatal(err)
	}
	res, err := dec.Decode(context.Background(), collided, len(payloads[0]))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Choir separated %d users:\n", len(res.Users))
	for i, u := range res.Users {
		fmt.Printf("  user %d: offset=%7.3f bins (frac %.3f)  payload=%q  err=%v\n",
			i, u.Offset, u.FracOffset(), u.Payload, u.Err)
	}
}
