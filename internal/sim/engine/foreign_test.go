package engine

import (
	"math"
	"reflect"
	"testing"

	"choir/internal/exec"
	"choir/internal/mac"
	"choir/internal/sim"
)

// TestZeroForeignTransparency pins the satellite contract: foreign networks
// that contribute no traffic — zero nodes, or zero offered load — must
// reproduce the single-network metrics bit-identically on both drivers.
// Foreign draws live in their own hash dimensions, so this is transparency
// by construction; the test keeps it that way.
func TestZeroForeignTransparency(t *testing.T) {
	base := Config{
		Scheme:         mac.SchemeChoir,
		Nodes:          400,
		Gateways:       2,
		Slots:          300,
		ArrivalPerSlot: 0.1,
		PayloadLen:     12,
		Receiver:       mac.ModelReceiver{Success: sim.AnalyticChoirTable(30, 0.95, 14), MaxConcurrent: 30},
		Seed:           31,
	}
	for _, driver := range []Driver{DriverEvent, DriverSlot} {
		cfg := base
		cfg.Driver = driver
		want := mustRun(t, cfg)
		for name, foreign := range map[string][]ForeignConfig{
			"zero-nodes":   {{Nodes: 0, ArrivalPerSlot: 0.5}},
			"zero-arrival": {{Nodes: 500, ArrivalPerSlot: 0}},
			"both":         {{Nodes: 0, ArrivalPerSlot: 0.5}, {Nodes: 500, ArrivalPerSlot: 0}},
		} {
			fcfg := cfg
			fcfg.Foreign = foreign
			if got := mustRun(t, fcfg); !reflect.DeepEqual(got, want) {
				t.Fatalf("driver %v, %s foreign network not transparent:\nwant %+v\ngot  %+v", driver, name, want, got)
			}
		}
	}
	if want := mustRun(t, base); want.Delivered == 0 || want.CollidedTx == 0 {
		t.Fatalf("degenerate scenario (delivered=%d collided=%d) pins nothing", want.Delivered, want.CollidedTx)
	}
}

// TestForeignDeterminism is the bugfix-satellite regression pin: foreign
// networks multiply the per-slot draw count (one Poisson inversion per
// contended gateway per SF), and every one of those draws must come from
// position-keyed hash chains, never a stream whose state depends on who
// drew before. The event driver must equal the slot reference, with
// interference actually flowing (ForeignTx > 0).
func TestForeignDeterminism(t *testing.T) {
	cfg := Config{
		Scheme:         mac.SchemeChoir,
		Driver:         DriverSlot,
		Nodes:          300,
		Gateways:       4,
		Slots:          200,
		ArrivalPerSlot: 0.2,
		PayloadLen:     12,
		Receiver:       mac.ModelReceiver{Success: sim.AnalyticChoirTable(30, 0.95, 14), MaxConcurrent: 30},
		ADR:            ADRDistance,
		Foreign: []ForeignConfig{
			{Nodes: 300, ArrivalPerSlot: 0.05, ADR: ADRFastestSNR},
			{Nodes: 100, ArrivalPerSlot: 0.2, ADR: ADRFixedSF12},
		},
		Seed: 77,
	}
	want := mustRun(t, cfg)
	if want.ForeignTx == 0 {
		t.Fatal("no foreign transmissions heard; the scenario pins nothing")
	}
	cfg.Driver = DriverEvent
	if got := mustRun(t, cfg); !reflect.DeepEqual(got, want) {
		t.Fatalf("event driver diverged from slot reference under foreign load:\nwant %+v\ngot  %+v", want, got)
	}
}

// poissonReference is the sampler as it stood before the floor became an
// argument — exp(-λ) computed per chunk, per draw — kept as the reference
// poisson is held equal to.
func poissonReference(h uint64, lam float64) int32 {
	var n int32
	t := uint64(0)
	for lam > 0 {
		l := lam
		if l > poissonChunkLambda {
			l = poissonChunkLambda
		}
		lam -= l
		L := math.Exp(-l)
		p := 1.0
		for {
			p *= unitOf(exec.Mix(h, t))
			t++
			if p <= L {
				break
			}
			n++
			if n >= maxForeignDraw {
				return maxForeignDraw
			}
		}
	}
	return n
}

// TestPoissonDraw pins the inversion sampler: equal to the reference that
// computes its own floors, draw for draw, below, at and above the chunk
// edge; determinism in (h, λ); the λ=0 and cap edge cases; and a coarse
// mean check across many independent chains (a wrong inversion is off in
// the first moment long before the tails matter).
func TestPoissonDraw(t *testing.T) {
	h0 := exec.Start(123)
	draw := func(h uint64, lam float64) int32 { return poisson(h, lam, math.Exp(-lam)) }
	for _, lam := range []float64{1e-3, 0.83, 3.5, 499.5, 500, 500.5, 1200, 1e9} {
		for i := uint64(0); i < 1000; i++ {
			h := exec.Mix(h0, i)
			if got, want := draw(h, lam), poissonReference(h, lam); got != want {
				t.Fatalf("poisson(head %d, λ=%g) = %d, reference %d", i, lam, got, want)
			}
		}
	}
	if n := draw(h0, 0); n != 0 {
		t.Fatalf("poisson(h, 0) = %d, want 0", n)
	}
	if a, b := draw(h0, 3.5), draw(h0, 3.5); a != b {
		t.Fatalf("poisson not deterministic: %d vs %d", a, b)
	}
	for _, lam := range []float64{0.3, 2, 40, 1200} {
		const trials = 4000
		var sum float64
		for i := uint64(0); i < trials; i++ {
			sum += float64(draw(exec.Mix(h0, i), lam))
		}
		mean := sum / trials
		// Standard error is sqrt(λ/trials); 6σ keeps the test deterministic
		// in practice while catching any systematic bias.
		tol := 6 * math.Sqrt(lam/trials)
		if math.Abs(mean-lam) > tol {
			t.Errorf("poisson mean at λ=%g: got %.3f, want within %.3f", lam, mean, tol)
		}
	}
	// A pathological offered load saturates at the cap instead of walking
	// millions of hash draws.
	if n := draw(h0, 1e9); n != maxForeignDraw {
		t.Fatalf("poisson(h, 1e9) = %d, want cap %d", n, maxForeignDraw)
	}
}

// TestForeignForMatchesReference holds the engine's use of the stored
// floors to the reference: over a run of slots every gateway's counts are
// what poissonReference draws from the same rates and hash heads, and the
// running total is their sum. One network is loud enough that a gateway's
// SF12 rate needs several chunks.
func TestForeignForMatchesReference(t *testing.T) {
	c := newCore(Config{
		Scheme: mac.SchemeChoir, Nodes: 10, Gateways: 4, Slots: 10,
		Receiver: mac.AlohaReceiver{},
		Foreign: []ForeignConfig{
			{Nodes: 400, ArrivalPerSlot: 1e-3},
			{Nodes: 9000, ArrivalPerSlot: 0.3, ADR: ADRFixedSF12},
		},
		Seed: 5,
	})
	var single, chunked int
	for _, rates := range c.foreignRate {
		for _, lam := range rates {
			if lam > poissonChunkLambda {
				chunked++
			} else if lam > 0 {
				single++
			}
		}
	}
	if single == 0 || chunked == 0 {
		t.Fatalf("rates %v cover %d single-chunk and %d multi-chunk draws: the scenario pins too little", c.foreignRate, single, chunked)
	}
	var fs foreignSlot
	var total int64
	for s := int64(0); s < 300; s++ {
		fs.beginSlot()
		for gw := range c.foreignRate {
			got := *c.foreignFor(&fs, int32(gw), s)
			hg := exec.Mix(exec.Mix(c.hForeignTx, uint64(gw)), uint64(s))
			var want [6]int32
			for si, lam := range c.foreignRate[gw] {
				want[si] = poissonReference(exec.Mix(hg, uint64(si)), lam)
				total += int64(want[si])
			}
			if got != want {
				t.Fatalf("slot %d gateway %d: foreignFor = %v, reference %v", s, gw, got, want)
			}
		}
	}
	if fs.total != total || total == 0 {
		t.Fatalf("foreignSlot.total = %d, reference draws sum to %d", fs.total, total)
	}
}

// TestForeignDegradesDelivery sanity-checks the model's direction: adding a
// loud same-city foreign network must not improve the home network's
// delivery ratio, and energy accounting must move with transmissions.
func TestForeignDegradesDelivery(t *testing.T) {
	base := Config{
		Scheme:         mac.SchemeAloha,
		Driver:         DriverEvent,
		Nodes:          300,
		Slots:          300,
		ArrivalPerSlot: 0.05,
		PayloadLen:     12,
		Receiver:       mac.AlohaReceiver{},
		Seed:           13,
	}
	clean := mustRun(t, base)
	base.Foreign = []ForeignConfig{{Nodes: 2000, ArrivalPerSlot: 0.05}}
	loud := mustRun(t, base)
	if loud.ForeignTx == 0 {
		t.Fatal("loud foreign network produced no interference")
	}
	if loud.DeliveryRatio() > clean.DeliveryRatio() {
		t.Errorf("interference improved delivery: %.4f > %.4f", loud.DeliveryRatio(), clean.DeliveryRatio())
	}
	for _, m := range []*Metrics{clean, loud} {
		if (m.Transmissions > 0) != (m.TxEnergyNJ > 0) {
			t.Errorf("energy accounting out of step with transmissions: %+v", m)
		}
	}
}
