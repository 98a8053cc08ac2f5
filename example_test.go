package choir_test

import (
	"context"
	"fmt"
	"math/rand/v2"

	"choir"
)

// ExampleDecoder_Decode shows the core flow: two clients collide on the
// same spreading factor and the decoder separates them by their hardware
// offsets.
func ExampleDecoder_Decode() {
	phy := choir.DefaultPHY()
	modem, _ := choir.NewModem(phy)
	rng := rand.New(rand.NewPCG(42, 1))
	pop := choir.DefaultPopulation()
	clients := choir.NewPopulation(2, pop, rng)

	payloads := [][]byte{[]byte("reading-A"), []byte("reading-B")}
	var emissions []choir.Emission
	for i, c := range clients {
		iq, start := c.Transmit(modem, payloads[i], pop.CarrierHz)
		emissions = append(emissions, choir.Emission{Samples: iq, StartSample: start, Gain: 0.1})
	}
	collided := choir.Combine(phy.FrameSamples(9)+phy.N(), emissions,
		choir.ChannelConfig{NoiseFloorDBm: -60}, rng)

	dec, _ := choir.NewDecoder(choir.DefaultDecoderConfig(phy))
	res, err := dec.Decode(context.Background(), collided, 9)
	if err != nil {
		fmt.Println("decode failed:", err)
		return
	}
	fmt.Printf("separated %d users\n", len(res.Users))
	for _, p := range res.DecodedPayloads() {
		fmt.Printf("%s\n", p)
	}
	// Unordered output:
	// separated 2 users
	// reading-A
	// reading-B
}

// ExampleModem_Demodulate shows the standard single-user LoRa transceiver
// that underlies the baselines.
func ExampleModem_Demodulate() {
	modem, _ := choir.NewModem(choir.DefaultPHY())
	iq := modem.Modulate([]byte("hello"))
	payload, err := modem.Demodulate(iq, 5)
	fmt.Printf("%s %v\n", payload, err)
	// Output: hello <nil>
}

// ExampleRunCity simulates a small cell under the oracle TDMA scheduler.
func ExampleRunCity() {
	metrics, err := choir.RunCity(context.Background(), oracleCell(100, 1))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(metrics.Delivered, "packets,", metrics.TxPerDelivered(), "tx/packet")
	// Output: 100 packets, 1 tx/packet
}

// ExampleFig9Range regenerates the paper's range-versus-team-size result.
func ExampleFig9Range() {
	fig := choir.Fig9Range(30)
	s := fig.Series[0]
	fmt.Printf("1 node: %.0f m; 30 nodes: %.0f m (gain %.2fx)\n",
		s.Y[0], s.Y[29], s.Y[29]/s.Y[0])
	// Output: 1 node: 936 m; 30 nodes: 2474 m (gain 2.64x)
}
