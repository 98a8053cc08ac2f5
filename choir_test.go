package choir_test

import (
	"bytes"
	"context"
	"math/rand/v2"
	"testing"

	"choir"
	"choir/internal/mac"
	"choir/internal/sim"
	"choir/internal/sim/engine"
)

// TestPublicAPICollisionRoundTrip exercises the exported surface end to
// end the way a downstream user would: build radios, collide frames,
// decode with Choir.
func TestPublicAPICollisionRoundTrip(t *testing.T) {
	phy := choir.DefaultPHY()
	modem, err := choir.NewModem(phy)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 5))
	pop := choir.DefaultPopulation()
	clients := choir.NewPopulation(3, pop, rng)

	payloads := [][]byte{[]byte("alpha-03"), []byte("bravo-14"), []byte("delta-27")}
	var emissions []choir.Emission
	length := phy.FrameSamples(8) + phy.N()
	for i, c := range clients {
		iq, off := c.Transmit(modem, payloads[i], pop.CarrierHz)
		emissions = append(emissions, choir.Emission{Samples: iq, StartSample: off, Gain: 0.1})
	}
	sig := choir.Combine(length, emissions, choir.ChannelConfig{NoiseFloorDBm: -55}, rng)

	dec, err := choir.NewDecoder(choir.DefaultDecoderConfig(phy))
	if err != nil {
		t.Fatal(err)
	}
	res, err := dec.Decode(context.Background(), sig, 8)
	if err != nil {
		t.Fatal(err)
	}
	got := res.DecodedPayloads()
	if len(got) != 3 {
		t.Fatalf("decoded %d payloads, want 3", len(got))
	}
	for _, want := range payloads {
		found := false
		for _, g := range got {
			if bytes.Equal(g, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("payload %q not recovered", want)
		}
	}
}

// TestPublicAPIExperiments sanity-checks that every exported experiment
// entry point produces a well-formed figure.
func TestPublicAPIExperiments(t *testing.T) {
	cfg := choir.DefaultFig8()
	cfg.Slots = 400
	cfg.Calibration.Trials = 0

	ctx := context.Background()
	figs := []*sim.Figure{
		choir.Fig7Offsets(10, 1),
		choir.Fig9Throughput(-22, 10),
		choir.Fig9Range(10),
	}
	for _, mk := range []func() (*sim.Figure, error){
		func() (*sim.Figure, error) { return choir.Fig10Resolution(ctx, []float64{500, 2000}, 2, 1) },
		func() (*sim.Figure, error) { return choir.Fig11Grouping(ctx, 6, 3, 1) },
		func() (*sim.Figure, error) { return choir.Fig8Users(ctx, cfg, choir.MetricThroughput) },
		func() (*sim.Figure, error) { return choir.Fig11Throughput(ctx, cfg, 6, 2, 4) },
	} {
		fig, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		figs = append(figs, fig)
	}
	for _, fig := range figs {
		if fig.ID == "" || len(fig.Series) == 0 {
			t.Errorf("malformed figure: %+v", fig)
		}
		for _, s := range fig.Series {
			if len(s.X) == 0 || len(s.X) != len(s.Y) {
				t.Errorf("%s series %q has %d/%d points", fig.ID, s.Name, len(s.X), len(s.Y))
			}
		}
	}
}

// TestPublicAPIMAC drives the MAC simulation behind the exported city
// configuration directly: a single-gateway city under the oracle TDMA
// scheduler.
func TestPublicAPIMAC(t *testing.T) {
	m, err := engine.Run(context.Background(), oracleCell(500, 2))
	if err != nil {
		t.Fatal(err)
	}
	if m.Unreachable != 0 || m.Delivered != 500 {
		t.Errorf("oracle delivered %d of 500 slots (%d nodes unreachable)", m.Delivered, m.Unreachable)
	}
}

// oracleCell is four saturated clients in one building under the genie
// scheduler and the standard one-packet-per-slot receiver.
func oracleCell(slots int, seed uint64) choir.CityConfig {
	return choir.CityConfig{
		Scheme:         mac.SchemeOracle,
		Nodes:          4,
		Gateways:       1,
		Slots:          slots,
		ArrivalPerSlot: 1,
		SideM:          10,
		PayloadLen:     8,
		SlotSeconds:    0.1,
		Receiver:       alohaRx{},
		Seed:           seed,
	}
}

// alohaRx is a minimal receiver model proving the interface is
// implementable from outside the internal packages.
type alohaRx struct{}

func (alohaRx) Prob(g choir.CityGroup) float64 {
	if g.K == 1 {
		return 1
	}
	return 0
}
func (alohaRx) Capacity() int { return 1 }
