package radio

import (
	"math"
	"math/rand/v2"
	"testing"

	"choir/internal/dsp"
)

func TestOscillatorCFO(t *testing.T) {
	o := Oscillator{PPM: 10}
	if got := o.CFO(902e6); math.Abs(got-9020) > 1e-9 {
		t.Errorf("CFO = %g Hz, want 9020", got)
	}
	neg := Oscillator{PPM: -3.5}
	if got := neg.CFO(902e6); math.Abs(got+3157) > 1e-9 {
		t.Errorf("CFO = %g Hz, want -3157", got)
	}
}

func TestPopulationDiversity(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	cfg := DefaultPopulation()
	txs := NewPopulation(30, cfg, rng)
	if len(txs) != 30 {
		t.Fatalf("population size %d", len(txs))
	}
	seen := map[int]bool{}
	var ppms []float64
	for _, tx := range txs {
		if seen[tx.ID] {
			t.Errorf("duplicate ID %d", tx.ID)
		}
		seen[tx.ID] = true
		if math.Abs(tx.Osc.PPM) > cfg.MaxPPM {
			t.Errorf("tx%d ppm %g out of range", tx.ID, tx.Osc.PPM)
		}
		ppms = append(ppms, tx.Osc.PPM)
	}
	// Offsets must be diverse — spread over a good fraction of the range.
	if spread := dsp.Percentile(ppms, 95) - dsp.Percentile(ppms, 5); spread < cfg.MaxPPM {
		t.Errorf("ppm spread %g too narrow for MaxPPM %g", spread, cfg.MaxPPM)
	}
}

func TestAmplitudeFromDBm(t *testing.T) {
	if a := AmplitudeFromDBm(0); math.Abs(a-1) > 1e-12 {
		t.Errorf("0 dBm amplitude %g", a)
	}
	if a := AmplitudeFromDBm(20); math.Abs(a-10) > 1e-12 {
		t.Errorf("20 dBm amplitude %g", a)
	}
	if a := AmplitudeFromDBm(-20); math.Abs(a-0.1) > 1e-12 {
		t.Errorf("-20 dBm amplitude %g", a)
	}
}

func TestTransmitterString(t *testing.T) {
	tx := &Transmitter{ID: 7, Osc: Oscillator{PPM: 1.5}, TimingOffset: 1e-6, PowerDBm: 14}
	s := tx.String()
	if s == "" || s[:3] != "tx7" {
		t.Errorf("String = %q", s)
	}
}
