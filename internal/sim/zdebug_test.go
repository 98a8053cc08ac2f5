package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"choir/internal/choir"
	"choir/internal/lora"
	"choir/internal/radio"
)

func TestDebugWeakTruth(t *testing.T) {
	// Reconstruct the ground-truth offsets the Scenario generates.
	sc := Scenario{Params: lora.DefaultParams(), PayloadLen: 8, SNRsDB: []float64{-3.1, -4.8, -6.2, -7.5, -8.4}, Seed: 1001}
	rng := rand.New(rand.NewPCG(sc.Seed, sc.Seed^0x517EA7))
	pop := radio.DefaultPopulation()
	txs := radio.NewPopulation(len(sc.SNRsDB), pop, rng)
	n := float64(sc.Params.N())
	fmt.Println("truth offsets:")
	for i, tx := range txs {
		cfoB := tx.Osc.CFO(pop.CarrierHz) / sc.Params.Bandwidth * n
		toB := -tx.TimingOffset * sc.Params.Bandwidth
		agg := math.Mod(cfoB+toB+4*n, n)
		fmt.Printf("  tx%d snr=%.1f agg=%.3f frac=%.3f\n", i, sc.SNRsDB[i], agg, math.Mod(agg, 1))
	}
	sig, _ := sc.Synthesize()
	dec := choir.MustNew(choir.DefaultConfig(sc.Params))
	res, err := dec.Decode(context.Background(), sig, 8)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println("estimates:")
	for _, u := range res.Users {
		fmt.Printf("  off=%.3f frac=%.3f |g|2=%.2e err=%v\n", u.Offset, u.FracOffset(), real(u.Gain)*real(u.Gain)+imag(u.Gain)*imag(u.Gain), u.Err)
	}
}
