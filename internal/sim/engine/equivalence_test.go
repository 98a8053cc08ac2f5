package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"choir/internal/exec"
	"choir/internal/mac"
	"choir/internal/sim"
)

// randomConfig draws one small scenario from the equivalence property's
// search space: all three schemes, slotted and unslotted, empty through
// saturated traffic, single and multi gateway, tight and loose queues,
// and receivers whose capacity cap does and does not bind.
func randomConfig(rng *rand.Rand) Config {
	cfg := Config{
		Scheme:         mac.SchemeChoir,
		Nodes:          1 + rng.IntN(64),
		Gateways:       []int{1, 1, 3}[rng.IntN(3)],
		Slots:          50 + rng.IntN(350),
		ArrivalPerSlot: []float64{0, 0.05, 0.4, 1}[rng.IntN(4)],
		QueueCap:       []int{2, 64}[rng.IntN(2)],
		PayloadLen:     12,
		Seed:           rng.Uint64(),
	}
	switch rng.IntN(3) {
	case 0:
		cfg.Scheme = mac.SchemeAloha
		cfg.Unslotted = rng.IntN(2) == 0
		cfg.MaxBackoffExp = 1 + rng.IntN(6)
	case 1:
		// The genie's grant step: the event driver has to re-queue every
		// node the round-robin defers.
		cfg.Scheme = mac.SchemeOracle
	}
	switch rng.IntN(3) {
	case 0:
		cfg.Receiver = mac.AlohaReceiver{}
	case 1:
		// Generous table: the capacity cap never binds.
		cfg.Receiver = mac.ModelReceiver{Success: sim.AnalyticChoirTable(64, 0.95, 14)}
	default:
		// Tiny capacity: with saturated Choir traffic the per-group cap
		// binds hard, exercising the ascending-node-order prefix rule.
		cfg.Receiver = mac.ModelReceiver{Success: []float64{1, 0.9, 0.7, 0.5}, MaxConcurrent: 2}
	}
	// Every ADR policy and the foreign-network interference path (via the
	// plain-SlotSuccess fallback: same-SF foreign counts join contention)
	// are part of the equivalence property's search space too.
	cfg.ADR = ADRPolicy(rng.IntN(int(numADRPolicies)))
	if rng.IntN(2) == 0 {
		cfg.Foreign = []ForeignConfig{{
			Nodes:          rng.IntN(200),
			ArrivalPerSlot: []float64{0, 0.02, 0.3}[rng.IntN(3)],
			ADR:            ADRPolicy(rng.IntN(int(numADRPolicies))),
		}}
		if rng.IntN(2) == 0 {
			cfg.Foreign = append(cfg.Foreign, ForeignConfig{Nodes: 50, ArrivalPerSlot: 0.1})
		}
	}
	return cfg
}

func mustRun(t *testing.T, cfg Config) *Metrics {
	t.Helper()
	m, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run(%+v): %v", cfg, err)
	}
	return m
}

// eventMatchesSlot runs cfg on both drivers, fails the test unless the
// event driver's Metrics are bit-identical to the slot reference's, and
// returns them. A single differing field means the fast driver is a
// different model, so the full structs are printed on failure.
func eventMatchesSlot(t *testing.T, name string, cfg Config) *Metrics {
	t.Helper()
	cfg.Driver = DriverSlot
	want := mustRun(t, cfg)
	cfg.Driver = DriverEvent
	if got := mustRun(t, cfg); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: event driver diverged from slot reference\ncfg:   %+v\nslot:  %+v\nevent: %+v", name, cfg, want, got)
	}
	return want
}

// maxKReceiver records the largest contention count the engine asked a
// trial's receiver about. With foreign traffic on that count includes the
// same-SF foreign frames, so it bounds the home count from above only.
type maxKReceiver struct {
	mac.SlotSuccess
	maxK *int
}

func (r maxKReceiver) PerTxProb(k int) float64 {
	*r.maxK = max(*r.maxK, k)
	return r.SlotSuccess.PerTxProb(k)
}

// TestEventSlotEquivalence is the load-bearing property of the engine:
// across randomized scenarios, and on the benchmark's sparse city shape,
// the event driver must produce METRICS BIT-IDENTICAL to the slot-walk
// reference. (The benchmark's dense shape needs the capture model, which
// imports this package: interfere's TestCaptureEventSlotEquivalence.)
//
// The event driver takes a slot's wakes in no particular order and sorts
// the transmitters only of a rationed slot, so the property is only worth
// its name if both arms ran: the full 60 trials must include a Choir or
// ALOHA trial with a group above the receiver's capacity (sorted), one with
// contention that stays within it (unsorted), and an Oracle trial (always
// sorted) with foreign traffic on.
func TestEventSlotEquivalence(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 15
	}
	var overCap, withinCap, oracleForeign bool
	rng := rand.New(rand.NewPCG(0xC17E, 0x5CA1E))
	for trial := 0; trial < trials; trial++ {
		cfg := randomConfig(rng)
		var maxK int
		cfg.Receiver = maxKReceiver{cfg.Receiver, &maxK}
		m := eventMatchesSlot(t, fmt.Sprintf("trial %d", trial), cfg)
		capacity := cfg.Receiver.Capacity()
		switch {
		case cfg.Scheme == mac.SchemeOracle:
			oracleForeign = oracleForeign || m.ForeignTx > 0
		case maxK > capacity && m.ForeignTx == 0:
			overCap = true
		case maxK >= 2 && maxK <= capacity:
			withinCap = true
		}
	}
	if !testing.Short() && !(overCap && withinCap && oracleForeign) {
		t.Fatalf("the %d trials did not run both arms: group above capacity %v, contention within capacity %v, Oracle under foreign traffic %v",
			trials, overCap, withinCap, oracleForeign)
	}

	// benchmark/'s city_sparse at 1/50 scale, with the Shards and Workers it
	// still assigns: accepted and ignored.
	m := eventMatchesSlot(t, "city_sparse/50", Config{
		Scheme:         mac.SchemeChoir,
		Nodes:          20_000,
		Gateways:       16,
		Slots:          1000,
		ArrivalPerSlot: 2e-5,
		Receiver:       mac.ModelReceiver{Success: sim.AnalyticChoirTable(30, 0.95, 14), MaxConcurrent: 30},
		Seed:           1,
		Shards:         8,
		Workers:        2,
	})
	if m.Delivered == 0 || m.Events*20 > int64(m.Nodes)*int64(m.Slots) {
		t.Fatalf("city_sparse/50 is not a sparse city (delivered=%d events=%d): it pins nothing", m.Delivered, m.Events)
	}

	// The horizon's edges: fewer slots than nodes (the horizon, not the node
	// count, sizes the calendar), a single slot, and saturated traffic — an
	// arrival every slot with no draw, up to the last one.
	rx := mac.ModelReceiver{Success: []float64{1, 0.9, 0.7, 0.5}, MaxConcurrent: 2}
	for _, cfg := range []Config{
		{Scheme: mac.SchemeChoir, Nodes: 600, Gateways: 3, Slots: 40, ArrivalPerSlot: 0.05},
		{Scheme: mac.SchemeAloha, Nodes: 600, Gateways: 1, Slots: 40, ArrivalPerSlot: 0.01, Unslotted: true},
		{Scheme: mac.SchemeChoir, Nodes: 50, Gateways: 1, Slots: 1, ArrivalPerSlot: 0.5},
		{Scheme: mac.SchemeOracle, Nodes: 50, Gateways: 1, Slots: 1, ArrivalPerSlot: 1},
		{Scheme: mac.SchemeChoir, Nodes: 30, Gateways: 2, Slots: 120, ArrivalPerSlot: 1},
		{Scheme: mac.SchemeAloha, Nodes: 30, Gateways: 1, Slots: 120, ArrivalPerSlot: 1, MaxBackoffExp: 3},
	} {
		cfg.Receiver, cfg.Seed = rx, 21
		name := fmt.Sprintf("%v nodes=%d slots=%d p=%g", cfg.Scheme, cfg.Nodes, cfg.Slots, cfg.ArrivalPerSlot)
		if m := eventMatchesSlot(t, name, cfg); m.Arrivals == 0 || m.Transmissions == 0 {
			t.Fatalf("%s: degenerate run (arrivals=%d transmissions=%d) pins nothing", name, m.Arrivals, m.Transmissions)
		}
	}
}

// TestDriverInvariance pins event ≡ slot at a size where the capacity cap
// binds in several (gateway, SF) groups every slot, under Choir and under
// the genie's grants.
func TestDriverInvariance(t *testing.T) {
	for _, scheme := range []mac.Scheme{mac.SchemeChoir, mac.SchemeOracle} {
		m := eventMatchesSlot(t, scheme.String(), Config{
			Scheme:         scheme,
			Nodes:          300,
			Gateways:       4,
			Slots:          200,
			ArrivalPerSlot: 0.3,
			PayloadLen:     12,
			Receiver:       mac.ModelReceiver{Success: []float64{1, 0.9, 0.7, 0.5, 0.3}, MaxConcurrent: 3},
			Seed:           99,
		})
		if m.Delivered == 0 || m.CollidedTx == 0 {
			t.Fatalf("%v: degenerate scenario (delivered=%d collided=%d) pins nothing", scheme, m.Delivered, m.CollidedTx)
		}
	}
}

// TestHugeCapacityIsNoCap pins that a receiver with no cap — a Capacity()
// beyond what the engine's int32 tallies hold, math.MaxInt being the
// natural spelling — behaves as one whose cap can never bind, on both
// drivers and under the genie's grants, instead of wrapping negative and
// refusing every transmission.
func TestHugeCapacityIsNoCap(t *testing.T) {
	for _, scheme := range []mac.Scheme{mac.SchemeChoir, mac.SchemeOracle} {
		for _, driver := range []Driver{DriverSlot, DriverEvent} {
			cfg := Config{
				Scheme: scheme, Driver: driver, Nodes: 20, Gateways: 1, Slots: 200,
				ArrivalPerSlot: 0.2, PayloadLen: 12, Seed: 3,
			}
			run := func(maxConcurrent int) *Metrics {
				cfg.Receiver = mac.ModelReceiver{Success: sim.AnalyticChoirTable(30, 0.95, 14), MaxConcurrent: maxConcurrent}
				return mustRun(t, cfg)
			}
			want := run(cfg.Nodes)
			if want.Delivered == 0 {
				t.Fatalf("%v %v: nothing delivered at MaxConcurrent = Nodes; the scenario pins nothing", scheme, driver)
			}
			beyond := math.MaxInt32
			beyond++ // at run time: the constant does not fit a 32-bit int
			for _, maxConcurrent := range []int{math.MaxInt32, beyond, math.MaxInt} {
				if got := run(maxConcurrent); !reflect.DeepEqual(got, want) {
					t.Errorf("%v %v: MaxConcurrent %d is not MaxConcurrent %d\nwant %+v\ngot  %+v", scheme, driver, maxConcurrent, cfg.Nodes, want, got)
				}
			}
		}
	}
}

// TestRunConservation pins the model's bookkeeping invariants on a
// mid-size city: every arrival is delivered, dropped, or still queued;
// per-SF splits sum to the totals; failures plus deliveries account for
// every transmission.
func TestRunConservation(t *testing.T) {
	m := mustRun(t, Config{
		Scheme:         mac.SchemeAloha,
		Driver:         DriverEvent,
		Nodes:          2000,
		Gateways:       2,
		Slots:          500,
		ArrivalPerSlot: 0.02,
		Unslotted:      true,
		PayloadLen:     12,
		Receiver:       mac.AlohaReceiver{},
		Seed:           5,
	})
	if m.Delivered+m.Dropped > m.Arrivals {
		t.Errorf("delivered %d + dropped %d > arrivals %d", m.Delivered, m.Dropped, m.Arrivals)
	}
	if m.Delivered+m.CollidedTx != m.Transmissions {
		t.Errorf("delivered %d + collided %d != transmissions %d", m.Delivered, m.CollidedTx, m.Transmissions)
	}
	var sfTx, sfDel, hist int64
	for i := range m.PerSFTx {
		sfTx += m.PerSFTx[i]
		sfDel += m.PerSFDelivered[i]
	}
	for _, h := range m.LatencyHist {
		hist += h
	}
	if sfTx != m.Transmissions || sfDel != m.Delivered || hist != m.Delivered {
		t.Errorf("per-SF/hist splits (tx %d del %d hist %d) don't sum to totals (tx %d del %d)",
			sfTx, sfDel, hist, m.Transmissions, m.Delivered)
	}
	if m.Delivered == 0 || m.Arrivals == 0 {
		t.Errorf("degenerate run: %+v", m)
	}
	if m.Events > int64(m.Nodes)*int64(m.Slots) {
		t.Errorf("events %d exceed nodes×slots", m.Events)
	}
}

// TestSweepSeedDerivation pins the density sweep's seed threading: each
// point's seed is a pure function of its coordinates through
// exec.DeriveSeed, so dropping a point never changes another point's
// result, and the sweep as a whole is reproducible.
func TestSweepSeedDerivation(t *testing.T) {
	base := Config{
		Scheme:         mac.SchemeChoir,
		Gateways:       1,
		Slots:          100,
		ArrivalPerSlot: 0.2,
		PayloadLen:     12,
		Receiver:       mac.ModelReceiver{Success: sim.AnalyticChoirTable(30, 0.95, 14), MaxConcurrent: 30},
		Seed:           42,
	}
	full, err := DensitySweep(context.Background(), base, []int{8, 32, 64})
	if err != nil {
		t.Fatal(err)
	}
	// Each point must equal a standalone run at the derived seed.
	for pi, p := range full {
		cfg := base
		cfg.Nodes = p.Nodes
		cfg.Seed = exec.DeriveSeed(base.Seed, dimSweep, uint64(pi))
		if got := mustRun(t, cfg); !reflect.DeepEqual(got, p.Metrics) {
			t.Fatalf("sweep point %d != standalone run at derived seed", pi)
		}
	}
	var buf strings.Builder
	FprintSweep(&buf, full)
	if !strings.Contains(buf.String(), "goodput") {
		t.Fatalf("sweep table missing header:\n%s", buf.String())
	}
}

// TestOracleNeverCollides pins the genie scheduler's defining property:
// whenever the receiver resolves every collision up to its capacity with
// certainty, an Oracle run spends exactly one transmission per delivered
// packet — on either driver, across gateways — and a saturated
// capacity-c cell delivers c packets every slot.
func TestOracleNeverCollides(t *testing.T) {
	receivers := []mac.SlotSuccess{
		mac.AlohaReceiver{},
		mac.ModelReceiver{Success: []float64{1, 1, 1, 0, 0}, MaxConcurrent: 3},
	}
	for _, rx := range receivers {
		for _, driver := range []Driver{DriverSlot, DriverEvent} {
			m := mustRun(t, Config{
				Scheme: mac.SchemeOracle, Driver: driver, Nodes: 200, Gateways: 3,
				Slots: 300, ArrivalPerSlot: 0.4, PayloadLen: 12, Receiver: rx, Seed: 8,
			})
			if m.Delivered == 0 || m.Transmissions != m.Delivered || m.CollidedTx != 0 {
				t.Errorf("%T %v: %d transmissions, %d delivered, %d collided", rx, driver, m.Transmissions, m.Delivered, m.CollidedTx)
			}
		}
		// One saturated building: every node in one group, so the genie
		// fills the receiver's capacity every slot.
		m := mustRun(t, Config{
			Scheme: mac.SchemeOracle, Nodes: 7, Gateways: 1, Slots: 400,
			ArrivalPerSlot: 1, SideM: 10, PayloadLen: 12, Receiver: rx, Seed: 8,
		})
		if want := int64(400 * rx.Capacity()); m.Unreachable != 0 || m.Delivered != want {
			t.Errorf("%T: saturated cell delivered %d, want %d (%d unreachable)", rx, m.Delivered, want, m.Unreachable)
		}
	}
}

// TestValidateRejects pins the config gate.
func TestValidateRejects(t *testing.T) {
	good := Config{
		Scheme:   mac.SchemeChoir,
		Nodes:    4,
		Gateways: 1,
		Slots:    10,
		Receiver: mac.AlohaReceiver{},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"scheme", func(c *Config) { c.Scheme = mac.Scheme(7) }, "scheme"},
		{"nodes", func(c *Config) { c.Nodes = 0 }, "Nodes"},
		{"nodes-beyond-int32", func(c *Config) { c.Nodes = math.MaxInt32; c.Nodes++ }, "int32 node ID limit"},
		{"slots", func(c *Config) { c.Slots = -1 }, "Slots"},
		{"queuecap-beyond-int32", func(c *Config) { c.QueueCap = math.MaxInt32; c.QueueCap++ }, "int32 backlog length limit"},
		{"arrival", func(c *Config) { c.ArrivalPerSlot = 1.5 }, "ArrivalPerSlot"},
		{"receiver", func(c *Config) { c.Receiver = nil }, "Receiver"},
		{"driver", func(c *Config) { c.Driver = Driver(7) }, "driver"},
		{"adr", func(c *Config) { c.ADR = ADRPolicy(9) }, "ADR"},
		{"foreign-nodes", func(c *Config) { c.Foreign = []ForeignConfig{{Nodes: -1}} }, "Foreign[0]"},
		{"foreign-arrival", func(c *Config) { c.Foreign = []ForeignConfig{{Nodes: 1, ArrivalPerSlot: 2}} }, "Foreign[0]"},
		{"foreign-adr", func(c *Config) { c.Foreign = []ForeignConfig{{ADR: ADRPolicy(-1)}} }, "Foreign[0]"},
	}
	for _, tc := range cases {
		cfg := good
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.want)
		}
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("%s: Run accepted invalid config", tc.name)
		}
	}
	if DriverEvent.String() != "event" || DriverSlot.String() != "slot" {
		t.Errorf("driver strings: %v %v", DriverEvent, DriverSlot)
	}
	if d, err := ParseDriver("slot"); err != nil || d != DriverSlot {
		t.Errorf("ParseDriver(slot) = %v, %v", d, err)
	}
	if _, err := ParseDriver("warp"); err == nil {
		t.Error("ParseDriver accepted garbage")
	}
}
