package mac

import (
	"context"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func baseConfig(scheme Scheme, nodes int) Config {
	return Config{
		Scheme:         scheme,
		Nodes:          nodes,
		Slots:          5000,
		ArrivalPerSlot: 1, // saturated
		SlotSeconds:    0.1,
		PacketBits:     64,
		Seed:           1,
	}
}

func TestAlohaReceiverSemantics(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	rx := AlohaReceiver{}
	if got := rx.Decode([]NodeID{3}, rng); len(got) != 1 || got[0] != 3 {
		t.Errorf("single TX: %v", got)
	}
	if got := rx.Decode([]NodeID{1, 2}, rng); got != nil {
		t.Errorf("collision decoded: %v", got)
	}
	if got := rx.Decode(nil, rng); got != nil {
		t.Errorf("idle slot decoded: %v", got)
	}
	if rx.Capacity() != 1 {
		t.Errorf("capacity %d", rx.Capacity())
	}
}

func TestModelReceiverProbability(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	rx := ModelReceiver{Success: []float64{1, 1, 0}}
	tx := []NodeID{1, 2}
	if got := rx.Decode(tx, rng); len(got) != 2 {
		t.Errorf("p=1 decode: %v", got)
	}
	// Three transmitters: table says p=0.
	if got := rx.Decode([]NodeID{1, 2, 3}, rng); len(got) != 0 {
		t.Errorf("p=0 decode: %v", got)
	}
	// Beyond the table: uses last entry (0).
	if got := rx.Decode([]NodeID{1, 2, 3, 4}, rng); len(got) != 0 {
		t.Errorf("beyond-table decode: %v", got)
	}
}

func TestModelReceiverCapacityCap(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	rx := ModelReceiver{Success: []float64{1, 1, 1, 1}, MaxConcurrent: 2}
	got := rx.Decode([]NodeID{1, 2, 3, 4}, rng)
	if len(got) != 2 {
		t.Errorf("capacity cap violated: %v", got)
	}
	if rx.Capacity() != 2 {
		t.Errorf("Capacity = %d", rx.Capacity())
	}
}

func TestOracleSaturatedDeliversEverySlot(t *testing.T) {
	cfg := baseConfig(SchemeOracle, 10)
	m, err := Run(context.Background(), cfg, AlohaReceiver{})
	if err != nil {
		t.Fatal(err)
	}
	// Oracle with capacity-1 PHY delivers exactly one packet per slot.
	if m.Delivered != cfg.Slots {
		t.Errorf("oracle delivered %d, want %d", m.Delivered, cfg.Slots)
	}
	if m.TxPerDelivered() != 1 {
		t.Errorf("oracle TxPerDelivered = %g, want 1", m.TxPerDelivered())
	}
}

func TestAlohaSaturatedIsLossy(t *testing.T) {
	cfg := baseConfig(SchemeAloha, 10)
	m, err := Run(context.Background(), cfg, AlohaReceiver{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Delivered == 0 {
		t.Fatal("ALOHA delivered nothing")
	}
	// ALOHA under saturation must be well below the oracle's 1 pkt/slot and
	// must waste transmissions.
	if m.Delivered >= cfg.Slots {
		t.Errorf("ALOHA delivered %d in %d slots — too good", m.Delivered, cfg.Slots)
	}
	if m.TxPerDelivered() <= 1.2 {
		t.Errorf("ALOHA TxPerDelivered = %g, expected retransmission waste", m.TxPerDelivered())
	}
}

func TestChoirScalesWithConcurrency(t *testing.T) {
	// A Choir receiver that decodes up to 8 concurrent packets reliably
	// should deliver ~min(nodes, 8)× the oracle-with-1 rate.
	success := make([]float64, 8)
	for i := range success {
		success[i] = 1
	}
	cfg := baseConfig(SchemeChoir, 8)
	m, err := Run(context.Background(), cfg, ModelReceiver{Success: success})
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Slots * 8
	if m.Delivered < want*9/10 {
		t.Errorf("Choir delivered %d, want ~%d", m.Delivered, want)
	}
}

func TestChoirBeatsAlohaUnderRealisticModel(t *testing.T) {
	// Success probabilities decaying with concurrency, as calibrated Choir
	// behaves: still far better than ALOHA.
	success := []float64{0.99, 0.97, 0.95, 0.9, 0.85, 0.8, 0.7, 0.6, 0.5, 0.4}
	choir, err := Run(context.Background(), baseConfig(SchemeChoir, 10), ModelReceiver{Success: success})
	if err != nil {
		t.Fatal(err)
	}
	aloha, err := Run(context.Background(), baseConfig(SchemeAloha, 10), AlohaReceiver{})
	if err != nil {
		t.Fatal(err)
	}
	gain := choir.ThroughputBps() / aloha.ThroughputBps()
	if gain < 3 {
		t.Errorf("Choir/ALOHA throughput gain = %.2f, want > 3", gain)
	}
	if choir.MeanLatency() >= aloha.MeanLatency() {
		t.Errorf("Choir latency %.2fs not better than ALOHA %.2fs", choir.MeanLatency(), aloha.MeanLatency())
	}
}

func TestLightLoadAllSchemesDeliver(t *testing.T) {
	// At very light load there are almost no collisions; every scheme
	// should deliver nearly all arrivals.
	for _, scheme := range []Scheme{SchemeAloha, SchemeOracle, SchemeChoir} {
		cfg := baseConfig(scheme, 5)
		cfg.ArrivalPerSlot = 0.01
		m, err := Run(context.Background(), cfg, ModelReceiver{Success: []float64{1, 0.9, 0.8}})
		if err != nil {
			t.Fatal(err)
		}
		arrivals := m.Delivered + m.Dropped
		// Allow for packets still queued at the end.
		if float64(m.Delivered) < 0.9*float64(arrivals)-50 {
			t.Errorf("%v delivered %d of ~%d arrivals", scheme, m.Delivered, arrivals)
		}
	}
}

func TestRunValidation(t *testing.T) {
	bad := []Config{
		{Nodes: 0, Slots: 10, SlotSeconds: 1, PacketBits: 8},
		{Nodes: 1, Slots: 0, SlotSeconds: 1, PacketBits: 8},
		{Nodes: 1, Slots: 10, SlotSeconds: 0, PacketBits: 8},
		{Nodes: 1, Slots: 10, SlotSeconds: 1, PacketBits: 0},
		{Nodes: 1, Slots: 10, ArrivalPerSlot: 1.5, SlotSeconds: 1, PacketBits: 8},
	}
	for i, cfg := range bad {
		if _, err := Run(context.Background(), cfg, AlohaReceiver{}); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
}

func TestRunIsDeterministic(t *testing.T) {
	cfg := baseConfig(SchemeAloha, 7)
	a, err := Run(context.Background(), cfg, AlohaReceiver{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), cfg, AlohaReceiver{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Delivered != b.Delivered || a.Transmissions != b.Transmissions {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestMetricsAccountingProperty(t *testing.T) {
	check := func(seed uint64) bool {
		cfg := Config{
			Scheme:         Scheme(seed % 3),
			Nodes:          1 + int(seed%12),
			Slots:          300,
			ArrivalPerSlot: float64(seed%10+1) / 10,
			SlotSeconds:    0.05,
			PacketBits:     64,
			Seed:           seed,
		}
		m, err := Run(context.Background(), cfg, ModelReceiver{Success: []float64{1, 0.8, 0.5, 0.2}})
		if err != nil {
			return false
		}
		// Invariants: delivered <= transmissions; latency positive when
		// anything delivered; delivered bounded by arrivals.
		if m.Delivered > m.Transmissions {
			return false
		}
		if m.Delivered > 0 && m.TotalLatencySlots < m.Delivered {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSchemeString(t *testing.T) {
	if SchemeAloha.String() != "ALOHA" || SchemeOracle.String() != "Oracle" || SchemeChoir.String() != "Choir" {
		t.Error("Scheme strings wrong")
	}
	if Scheme(9).String() == "" {
		t.Error("unknown scheme string empty")
	}
}
