package engine

import (
	"context"
	"testing"

	"choir/internal/mac"
	"choir/internal/sim"
)

// cityScaleConfig is the ROADMAP north-star scenario: a million nodes on
// one gateway's urban cell, sparse sensing traffic, Choir receiver.
func cityScaleConfig(nodes int) Config {
	return Config{
		Scheme:   mac.SchemeChoir,
		Driver:   DriverEvent,
		Nodes:    nodes,
		Gateways: 1,
		Slots:    2000,
		// ~1 packet per node per day at 1-second slots: city-scale LP-WAN
		// sensing is sparse, which is exactly why the event driver wins.
		ArrivalPerSlot: 2e-5,
		SideM:          1200,
		PayloadLen:     12,
		Receiver:       mac.ModelReceiver{Success: sim.AnalyticChoirTable(30, 0.95, 14), MaxConcurrent: 30},
		Seed:           2026,
	}
}

// TestCityScaleSmoke runs the 1M-node single-gateway density sweep the
// issue gates on: it must complete within the ordinary test budget
// (minutes; the event driver does it in seconds) and produce a sane,
// non-degenerate city. -short skips it.
func TestCityScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("city-scale smoke is minutes-budget; skipped under -short")
	}
	points, err := DensitySweep(context.Background(), cityScaleConfig(0), []int{100_000, 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		m := p.Metrics
		if m.Arrivals == 0 || m.Delivered == 0 {
			t.Fatalf("%d nodes: degenerate city: %+v", p.Nodes, m)
		}
		if m.Delivered+m.Dropped > m.Arrivals {
			t.Fatalf("%d nodes: delivered %d + dropped %d > arrivals %d", p.Nodes, m.Delivered, m.Dropped, m.Arrivals)
		}
		if m.Delivered+m.CollidedTx != m.Transmissions {
			t.Fatalf("%d nodes: tx accounting broken: %+v", p.Nodes, m)
		}
		if m.Unreachable > int64(p.Nodes)/2 {
			t.Fatalf("%d nodes: %d unreachable — topology defaults off", p.Nodes, m.Unreachable)
		}
		// The event driver's selling point: touched work is a tiny
		// fraction of the nodes × slots grid the slot walk would scan.
		grid := int64(p.Nodes) * int64(m.Slots)
		if m.Events*20 > grid {
			t.Fatalf("%d nodes: %d events is not sparse vs %d node-slots", p.Nodes, m.Events, grid)
		}
		t.Logf("%d nodes: arrivals=%d delivered=%d (ratio %.3f) events=%d activeSlots=%d unreachable=%d",
			p.Nodes, m.Arrivals, m.Delivered, m.DeliveryRatio(), m.Events, m.ActiveSlots, m.Unreachable)
	}
}
