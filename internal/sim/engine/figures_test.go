package engine

import (
	"context"
	"fmt"
	"math"
	"testing"
)

func fastFig8() Fig8Config {
	cfg := DefaultFig8()
	cfg.Slots = 800
	cfg.Calibration.Trials = 0 // analytic table
	return cfg
}

func TestFig8UsersShape(t *testing.T) {
	cfg := fastFig8()
	fig, err := Fig8Users(context.Background(), cfg, Throughput)
	if err != nil {
		t.Fatal(err)
	}
	choirS := fig.SeriesAt("Choir")
	alohaS := fig.SeriesAt("ALOHA")
	oracleS := fig.SeriesAt("Oracle")
	if choirS == nil || alohaS == nil || oracleS == nil {
		t.Fatal("missing series")
	}
	last := len(choirS.Y) - 1
	// Qualitative shape of Fig. 8(d): Choir > Oracle > ALOHA at 10 users,
	// and Choir grows with user count.
	if choirS.Y[last] <= oracleS.Y[last] {
		t.Errorf("Choir %.0f <= Oracle %.0f at 10 users", choirS.Y[last], oracleS.Y[last])
	}
	if oracleS.Y[last] <= alohaS.Y[last] {
		t.Errorf("Oracle %.0f <= ALOHA %.0f at 10 users", oracleS.Y[last], alohaS.Y[last])
	}
	if choirS.Y[last] <= choirS.Y[0] {
		t.Error("Choir throughput does not grow with users")
	}
	// The paper's headline: >4x over Oracle-ish at 10 users (6.84x measured
	// there); require a healthy multiple without pinning the exact value.
	if gain := fig.GainAt("Choir", "Oracle", last); gain < 3 {
		t.Errorf("Choir/Oracle gain %.2f < 3 at 10 users", gain)
	}
}

func TestFig8LatencyAndTxShape(t *testing.T) {
	cfg := fastFig8()
	lat, err := Fig8Users(context.Background(), cfg, Latency)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := Fig8Users(context.Background(), cfg, TxCount)
	if err != nil {
		t.Fatal(err)
	}
	last := len(lat.SeriesAt("Choir").Y) - 1
	if lat.GainAt("ALOHA", "Choir", last) < 2 {
		t.Errorf("latency reduction %.2f < 2", lat.GainAt("ALOHA", "Choir", last))
	}
	if tx.GainAt("ALOHA", "Choir", last) < 2 {
		t.Errorf("tx reduction %.2f < 2", tx.GainAt("ALOHA", "Choir", last))
	}
	// Oracle never retransmits.
	if o := tx.SeriesAt("Oracle"); o.Y[last] != 1 {
		t.Errorf("oracle tx/packet = %g", o.Y[last])
	}
}

func TestFig8SNRRuns(t *testing.T) {
	cfg := fastFig8()
	fig, err := Fig8SNR(context.Background(), cfg, Throughput)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("%d series", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Y) != 3 {
			t.Errorf("%s has %d regimes", s.Name, len(s.Y))
		}
		for _, y := range s.Y {
			if y < 0 {
				t.Errorf("%s negative throughput", s.Name)
			}
		}
	}
}

func TestFig11ThroughputOrder(t *testing.T) {
	cfg := fastFig8()
	fig, err := Fig11Throughput(context.Background(), cfg, 10, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	aloha, oracle, ch := s.Y[0], s.Y[1], s.Y[2]
	if !(ch > oracle && oracle > aloha) {
		t.Errorf("throughput order wrong: aloha=%.0f oracle=%.0f choir=%.0f", aloha, oracle, ch)
	}
}

func TestFig12Order(t *testing.T) {
	cfg := DefaultFig12()
	cfg.Fig8 = fastFig8()
	fig, err := Fig12MUMIMO(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	y := fig.Series[0].Y
	aloha, oracle, mumimo, ch, chMimo := y[0], y[1], y[2], y[3], y[4]
	if !(oracle > aloha) {
		t.Errorf("oracle %.0f <= aloha %.0f", oracle, aloha)
	}
	if !(mumimo > oracle) {
		t.Errorf("mumimo %.0f <= oracle %.0f", mumimo, oracle)
	}
	if !(ch > mumimo) {
		t.Errorf("choir (1 antenna) %.0f <= mumimo (3 antennas) %.0f", ch, mumimo)
	}
	if !(chMimo >= ch) {
		t.Errorf("choir+mumimo %.0f < choir %.0f", chMimo, ch)
	}
}

func TestComputeHeadline(t *testing.T) {
	h, err := ComputeHeadline(context.Background(), fastFig8())
	if err != nil {
		t.Fatal(err)
	}
	if h.ThroughputGainVsOracle < 3 {
		t.Errorf("throughput gain vs oracle %.2f", h.ThroughputGainVsOracle)
	}
	if h.LatencyReduction < 2 || h.TxReduction < 2 {
		t.Errorf("latency %.2f / tx %.2f reductions too small", h.LatencyReduction, h.TxReduction)
	}
	if math.Abs(h.RangeGain-2.65) > 0.35 {
		t.Errorf("range gain %.2f", h.RangeGain)
	}
}

// TestFig8DeterministicAcrossWorkers is the sweep half of the determinism
// regression (sim's TestSuccessTableDeterministicAcrossWorkers is the
// calibration half): a Fig. 8 users sweep with an IQ-calibrated Choir
// receiver must be byte-identical at Workers=1 and Workers=8.
func TestFig8DeterministicAcrossWorkers(t *testing.T) {
	mk := func(workers int) string {
		cfg := DefaultFig8()
		cfg.Slots = 300
		// Two collision sizes, two trials each keeps the calibration cheap.
		cfg.Calibration.MaxUsers = 2
		cfg.Calibration.Trials = 2
		cfg.Calibration.Seed = 105
		cfg.Workers = workers
		fig, err := Fig8Users(context.Background(), cfg, Throughput)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", fig)
	}
	serial := mk(1)
	parallel := mk(8)
	if serial != parallel {
		t.Errorf("Fig8Users diverged across worker counts:\nserial:   %s\nparallel: %s", serial, parallel)
	}
}
