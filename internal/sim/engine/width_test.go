package engine_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"choir/internal/mac"
	"choir/internal/sim"
	"choir/internal/sim/engine"
	"choir/internal/sim/interfere"
)

// TestMetricsIndependentOfWidth holds the event driver's bands to the
// serial reference: at GOMAXPROCS 1, 2 and 4 — one band, two, and as many
// as four where the city has the gateway rows — a run's Metrics are
// reflect.DeepEqual to each other and to DriverSlot's. The scenarios are
// the equivalence property's random ones, the genie, unslotted ALOHA,
// foreign networks under the capture model (interfere.New, which is why
// this is an external test), and 1, 3 (a clamped gateway grid) and 16
// gateways; one has a node row that straddles a band edge, split between
// two bands' node ranges.
func TestMetricsIndependentOfWidth(t *testing.T) {
	rx := mac.ModelReceiver{Success: sim.AnalyticChoirTable(30, 0.95, 14), MaxConcurrent: 30}
	tight := mac.ModelReceiver{Success: []float64{1, 0.9, 0.7, 0.5}, MaxConcurrent: 2}
	type scenario struct {
		name string
		cfg  engine.Config
	}
	straddle := engine.Config{
		Scheme: mac.SchemeChoir, Nodes: 2000, Gateways: 16, Slots: 300,
		ArrivalPerSlot: 0.02, Receiver: tight, Seed: 11,
	}
	scenarios := []scenario{
		{"straddle/16gw", straddle},
		{"oracle/3gw", engine.Config{
			Scheme: mac.SchemeOracle, Nodes: 600, Gateways: 3, Slots: 300,
			ArrivalPerSlot: 0.05, Receiver: tight, Seed: 12,
		}},
		{"unslotted-aloha/16gw", engine.Config{
			Scheme: mac.SchemeAloha, Nodes: 3000, Gateways: 16, Slots: 300,
			ArrivalPerSlot: 0.01, Unslotted: true, MaxBackoffExp: 4, Receiver: mac.AlohaReceiver{}, Seed: 13,
		}},
		{"capture-foreign/16gw", engine.Config{
			Scheme: mac.SchemeChoir, Nodes: 4000, Gateways: 16, Slots: 300, ArrivalPerSlot: 0.01,
			Foreign:  []engine.ForeignConfig{{Nodes: 1500, ArrivalPerSlot: 0.01}},
			Receiver: interfere.New(tight, 6), Seed: 14,
		}},
		{"capture-foreign/3gw", engine.Config{
			Scheme: mac.SchemeAloha, Nodes: 1000, Gateways: 3, Slots: 300, ArrivalPerSlot: 0.02,
			Foreign:  []engine.ForeignConfig{{Nodes: 500, ArrivalPerSlot: 0.02, ADR: engine.ADRFixedSF12}},
			Receiver: interfere.New(rx, 6), Seed: 15,
		}},
		{"one-gateway", engine.Config{
			Scheme: mac.SchemeChoir, Nodes: 500, Gateways: 1, Slots: 300,
			ArrivalPerSlot: 0.05, Receiver: tight, Seed: 16,
		}},
	}
	rng := rand.New(rand.NewPCG(0xC17E, 0x5CA1E))
	for trial := 0; trial < 30; trial++ {
		cfg := engine.RandomConfig(rng)
		if trial%3 == 2 {
			cfg.Gateways = 16
		}
		scenarios = append(scenarios, scenario{fmt.Sprintf("random/%02d", trial), cfg})
	}
	if engine.SplitRows(straddle, 2) == 0 || engine.SplitRows(straddle, 4) == 0 {
		t.Fatal("no node row of the straddle scenario is split between bands: it pins nothing")
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sc := range scenarios {
		cfg := sc.cfg
		cfg.Driver = engine.DriverSlot
		want, err := engine.Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		if !strings.HasPrefix(sc.name, "random/") {
			if want.Delivered == 0 || len(cfg.Foreign) > 0 && want.ForeignTx == 0 {
				t.Fatalf("%s: degenerate run (delivered=%d foreign_tx=%d) pins nothing", sc.name, want.Delivered, want.ForeignTx)
			}
		}
		cfg.Driver = engine.DriverEvent
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			got, err := engine.Run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", sc.name, procs, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s at GOMAXPROCS %d: event driver diverged from slot reference\nslot:  %+v\nevent: %+v", sc.name, procs, want, got)
			}
		}
	}
}
