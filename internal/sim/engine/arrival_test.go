package engine

import (
	"math"
	"reflect"
	"testing"

	"choir/internal/exec"
	"choir/internal/mac"
)

// arrivalCore builds a core whose only interesting fields are the arrival
// process's: p, the horizon and the seed.
func arrivalCore(p float64, slots int, seed uint64) *core {
	return newCore(Config{
		Scheme: mac.SchemeChoir, Nodes: 4, Slots: slots, ArrivalPerSlot: p,
		Receiver: mac.AlohaReceiver(), Seed: seed,
	})
}

// refGap is the definition gapOf's fast routes are held to: the expression
// the engine has always used, its quotient tested against the horizon as a
// float so that nothing out of int64's range is ever converted. It is exact
// while left <= 2^53, which every case here is.
func refGap(c *core, u float64, left int64) int64 {
	q := math.Log1p(-u) / c.logq
	if !(q < float64(left)) {
		return -1
	}
	return int64(q)
}

// refArrivalAfter is arrivalAfter over refGap.
func refArrivalAfter(c *core, i int32, idx uint64, base int64) int64 {
	left := c.slots - base
	switch {
	case left <= 0 || c.cfg.ArrivalPerSlot <= 0:
		return -1
	case c.cfg.ArrivalPerSlot >= 1:
		return base
	}
	g := refGap(c, unitOf(exec.Mix(exec.Mix(c.hArrival, uint64(i)), idx)), left)
	if g < 0 {
		return -1
	}
	return base + g
}

const ulp53 = 1.0 / (1 << 53)

// TestArrivalAfterMatchesReference holds arrivalAfter's two fast routes to
// the one expression that defines the result: on hashed draws across
// arrival rates from 1e-19 to 0.999999 and horizons around the table's
// block boundaries; at the largest draws every pastHorizon entry prunes;
// and at the draws either side of every gap boundary 1-u = (1-p)^g.
func TestArrivalAfterMatchesReference(t *testing.T) {
	rates := []float64{1e-19, 1e-12, 1e-9, 2e-5, 1e-3, 0.01, 0.3, 0.9, 0.999999}
	horizons := []int{1, 7, 1000, 1024, 1025, 50_000, 10_000_000}
	draws := 4000
	if testing.Short() {
		draws = 400
	}
	for _, p := range rates {
		for _, slots := range horizons {
			c := arrivalCore(p, slots, 7)
			if len(c.pastHorizon) > 1024 {
				t.Fatalf("p=%g slots=%d: pastHorizon has %d entries", p, slots, len(c.pastHorizon))
			}
			h := exec.Mix(exec.Start(uint64(slots)), math.Float64bits(p))
			for k := 0; k < draws; k++ {
				h = exec.Mix(h, uint64(k))
				i, idx := int32(h%4), h>>40
				base := int64(exec.Mix(h, 1) % uint64(slots+1)) // slots itself: nothing left
				if k%8 == 0 {
					base = 0
				}
				if got, want := c.arrivalAfter(i, idx, base), refArrivalAfter(c, i, idx, base); got != want {
					t.Fatalf("p=%g slots=%d: arrivalAfter(%d, %d, %d) = %d, the reference says %d", p, slots, i, idx, base, got, want)
				}
			}

			// Every entry must only prune draws the reference prunes from
			// anywhere in its block, the block's largest left included.
			for j, e := range c.pastHorizon {
				hi := (int64(j)+1)<<c.phShift - 1
				v := math.Floor(e/ulp53) * ulp53
				for k := 0; k < 8 && v > 0; k, v = k+1, v-ulp53 {
					if q := math.Log1p(-(1 - v)) / c.logq; !(q >= float64(hi)) {
						t.Fatalf("p=%g slots=%d: entry %d (left <= %d) prunes 1-u=%g, whose quotient is %g", p, slots, j, hi, v, q)
					}
					if left := min(hi, c.slots); left > 0 && c.gapOf(1-v, left) != -1 {
						t.Fatalf("p=%g slots=%d: gapOf(1-%g, %d) is not pruned", p, slots, v, left)
					}
				}
			}
		}
	}

	// Gap boundaries: 1-u = (1-p)^g is where floor changes, so the draws a
	// few multiples of 2^-53 either side of it are where an approximate
	// logarithm would be wrong first.
	maxG := 200_000
	if testing.Short() {
		maxG = 20_000
	}
	for _, p := range []float64{2e-5, 1e-3, 0.01, 0.3} {
		c := arrivalCore(p, 10_000_000, 7)
		for g := 1; g <= maxG; g++ {
			edge := math.Floor(math.Exp(float64(g)*c.logq)/ulp53) * ulp53
			if edge < 64*ulp53 {
				break
			}
			for k := -6; k <= 6; k++ {
				u := 1 - (edge + float64(k)*ulp53)
				if u < 0 {
					continue
				}
				for _, left := range []int64{int64(g), int64(g) + 1, c.slots} {
					if got, want := c.gapOf(u, left), refGap(c, u, left); got != want {
						t.Fatalf("p=%g: gapOf(1-%b, %d) = %d at the g=%d boundary, the reference says %d", p, 1-u, left, got, g, want)
					}
				}
			}
		}
	}
}

// FuzzArrivalAfter holds arrivalAfter to the reference on any rate (as
// float bits), horizon and base the fuzzer finds, for a handful of hashed
// draws each.
func FuzzArrivalAfter(f *testing.F) {
	f.Add(uint64(1), math.Float64bits(2e-5), uint32(50_000), uint32(0))
	f.Add(uint64(2), math.Float64bits(1e-19), uint32(1), uint32(0))
	f.Add(uint64(3), math.Float64bits(math.SmallestNonzeroFloat64), uint32(1025), uint32(1024))
	f.Add(uint64(4), math.Float64bits(0.999999), uint32(7), uint32(3))
	f.Add(uint64(5), math.Float64bits(1), uint32(10), uint32(10))
	f.Fuzz(func(t *testing.T, seed, pBits uint64, slots, base uint32) {
		p := math.Float64frombits(pBits)
		if !(p >= 0 && p <= 1) || slots == 0 {
			t.Skip()
		}
		c := arrivalCore(p, int(slots), seed)
		b := int64(base) % (c.slots + 1)
		for idx := uint64(0); idx < 64; idx++ {
			i := int32(idx % 4)
			if got, want := c.arrivalAfter(i, idx, b), refArrivalAfter(c, i, idx, b); got != want {
				t.Fatalf("p=%g slots=%d seed=%d: arrivalAfter(%d, %d, %d) = %d, the reference says %d", p, slots, seed, i, idx, b, got, want)
			}
		}
	})
}

// TestTinyArrivalRate runs rates whose gaps exceed int64 — p = 1e-19, and
// the smallest p there is, where 1/ln(1-p) is infinite and the table-made
// quotient is Inf or NaN — on both drivers: no arrival, no wake, and no
// conversion of a quotient the horizon test has not bounded.
func TestTinyArrivalRate(t *testing.T) {
	for _, p := range []float64{1e-19, math.SmallestNonzeroFloat64} {
		cfg := Config{
			Scheme: mac.SchemeChoir, Nodes: 3000, Gateways: 2, Slots: 5000,
			ArrivalPerSlot: p, Receiver: mac.AlohaReceiver(), Seed: 11,
		}
		m := eventMatchesSlot(t, "tiny rate", cfg)
		if m.Arrivals != 0 || m.Events != 0 || m.ActiveSlots != 0 {
			t.Errorf("p=%g: %d arrivals, %d events in %d active slots; want none", p, m.Arrivals, m.Events, m.ActiveSlots)
		}
		c := newCore(cfg)
		b := c.newBand(0, c.gwRows, nil)
		for i := range c.nodes {
			c.initArrivals(int32(i))
			if w := b.wakeOf(&c.nodes[i]); w != -1 {
				t.Fatalf("p=%g: node %d wakes at %d", p, i, w)
			}
		}
		if !reflect.DeepEqual(*m, *c.newMetrics()) {
			t.Errorf("p=%g: a run with no arrivals is not the empty Metrics: %+v", p, *m)
		}
	}
}
