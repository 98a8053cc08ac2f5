package mac_test

import (
	"context"
	"reflect"
	"testing"
	"testing/quick"

	"choir/internal/mac"
	"choir/internal/sim/engine"
)

// The schemes and receivers this package defines are executed by
// internal/sim/engine (which imports mac, hence the external test
// package). These tests pin their documented behaviour on a single cell:
// one gateway and a building-sized square, so every node lands in one
// (gateway, SF) contention group.

func baseConfig(scheme mac.Scheme, nodes int, rx mac.SlotSuccess) engine.Config {
	return engine.Config{
		Scheme:         scheme,
		Nodes:          nodes,
		Gateways:       1,
		Slots:          5000,
		ArrivalPerSlot: 1, // saturated
		SideM:          10,
		PayloadLen:     8,
		SlotSeconds:    0.1,
		Receiver:       rx,
		Seed:           1,
	}
}

func run(t *testing.T, cfg engine.Config) *engine.Metrics {
	t.Helper()
	m, err := engine.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Unreachable != 0 {
		t.Fatalf("%d nodes out of range in a single-building cell", m.Unreachable)
	}
	return m
}

func TestModelReceiverCapacityCap(t *testing.T) {
	rx := mac.ModelReceiver{Success: []float64{1, 1, 1, 1}, MaxConcurrent: 2}
	if rx.Capacity() != 2 {
		t.Errorf("Capacity = %d", rx.Capacity())
	}
	// Four saturated Choir nodes all succeed their Bernoulli draw every
	// slot; the cap keeps exactly two of them.
	cfg := baseConfig(mac.SchemeChoir, 4, rx)
	if m := run(t, cfg); m.Delivered != int64(2*cfg.Slots) {
		t.Errorf("capacity cap violated: %d delivered in %d slots, want 2 per slot", m.Delivered, cfg.Slots)
	}
}

func TestOracleSaturatedDeliversEverySlot(t *testing.T) {
	cfg := baseConfig(mac.SchemeOracle, 10, mac.AlohaReceiver())
	m := run(t, cfg)
	// Oracle with capacity-1 PHY delivers exactly one packet per slot.
	if m.Delivered != int64(cfg.Slots) {
		t.Errorf("oracle delivered %d, want %d", m.Delivered, cfg.Slots)
	}
	if m.TxPerDelivered() != 1 {
		t.Errorf("oracle TxPerDelivered = %g, want 1", m.TxPerDelivered())
	}
}

func TestAlohaSaturatedIsLossy(t *testing.T) {
	cfg := baseConfig(mac.SchemeAloha, 10, mac.AlohaReceiver())
	m := run(t, cfg)
	if m.Delivered == 0 {
		t.Fatal("ALOHA delivered nothing")
	}
	// ALOHA under saturation must be well below the oracle's 1 pkt/slot and
	// must waste transmissions.
	if m.Delivered >= int64(cfg.Slots) {
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
	cfg := baseConfig(mac.SchemeChoir, 8, mac.ModelReceiver{Success: success})
	m := run(t, cfg)
	want := int64(cfg.Slots * 8)
	if m.Delivered < want*9/10 {
		t.Errorf("Choir delivered %d, want ~%d", m.Delivered, want)
	}
}

func TestChoirBeatsAlohaUnderRealisticModel(t *testing.T) {
	// Success probabilities decaying with concurrency, as calibrated Choir
	// behaves: still far better than ALOHA.
	success := []float64{0.99, 0.97, 0.95, 0.9, 0.85, 0.8, 0.7, 0.6, 0.5, 0.4}
	choir := run(t, baseConfig(mac.SchemeChoir, 10, mac.ModelReceiver{Success: success}))
	aloha := run(t, baseConfig(mac.SchemeAloha, 10, mac.AlohaReceiver()))
	gain := choir.GoodputBps() / aloha.GoodputBps()
	if gain < 3 {
		t.Errorf("Choir/ALOHA throughput gain = %.2f, want > 3", gain)
	}
	if choir.MeanLatencySeconds() >= aloha.MeanLatencySeconds() {
		t.Errorf("Choir latency %.2fs not better than ALOHA %.2fs", choir.MeanLatencySeconds(), aloha.MeanLatencySeconds())
	}
}

func TestLightLoadAllSchemesDeliver(t *testing.T) {
	// At very light load there are almost no collisions; every scheme
	// should deliver nearly all arrivals.
	for _, scheme := range []mac.Scheme{mac.SchemeAloha, mac.SchemeOracle, mac.SchemeChoir} {
		cfg := baseConfig(scheme, 5, mac.ModelReceiver{Success: []float64{1, 0.9, 0.8}})
		cfg.ArrivalPerSlot = 0.01
		m := run(t, cfg)
		// Allow for packets still queued at the end.
		if float64(m.Delivered) < 0.9*float64(m.Arrivals)-50 {
			t.Errorf("%v delivered %d of %d arrivals", scheme, m.Delivered, m.Arrivals)
		}
	}
}

func TestRunIsDeterministic(t *testing.T) {
	cfg := baseConfig(mac.SchemeAloha, 7, mac.AlohaReceiver())
	if a, b := run(t, cfg), run(t, cfg); !reflect.DeepEqual(a, b) {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestMetricsAccountingProperty(t *testing.T) {
	check := func(seed uint64) bool {
		cfg := baseConfig(mac.Scheme(seed%3), 1+int(seed%12), mac.ModelReceiver{Success: []float64{1, 0.8, 0.5, 0.2}})
		cfg.Slots = 300
		cfg.ArrivalPerSlot = float64(seed%10+1) / 10
		cfg.SlotSeconds = 0.05
		cfg.Seed = seed
		m := run(t, cfg)
		// Invariants: delivered <= transmissions; latency positive when
		// anything delivered; delivered and dropped bounded by arrivals.
		if m.Delivered > m.Transmissions || m.Delivered+m.Dropped > m.Arrivals {
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
