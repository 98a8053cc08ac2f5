package engine

import (
	"math"
	"testing"

	"choir/internal/exec"
	"choir/internal/lora"
	"choir/internal/mac"
	"choir/internal/sim"
)

// refLink is the definition fastestSF is held to, written out as the engine
// had it before the route: math.Hypot's distance clamped at 1 m, refZ,
// adrSelect.
func refLink(c *core, policy ADRPolicy, dx, dy, u1, u2 float64) (int8, uint8, bool) {
	d := math.Hypot(dx, dy)
	if d < 1 {
		d = 1
	}
	return c.adrSelect(policy, d, refZ(u1, u2))
}

// refZ is the shadowing draw by Box-Muller with math.Log1p.
func refZ(u1, u2 float64) float64 {
	return math.Sqrt(-2*math.Log1p(-u1)) * math.Cos(2*math.Pi*u2)
}

// ulps returns the float64 k representable steps from a nonzero x, away from
// zero for k > 0.
func ulps(x float64, k int64) float64 {
	return math.Float64frombits(uint64(int64(math.Float64bits(x)) + k))
}

// refChannel is refLink from a position and a shadowing chain head, the
// way channelOf takes them.
func refChannel(c *core, policy ADRPolicy, x, y float64, hs uint64) (int32, int8, uint8, bool) {
	gw, dx, dy := c.gatewayOf(x, y)
	sf, pwr, ok := refLink(c, policy, dx, dy, unitOf(exec.Mix(hs, 0)), unitOf(exec.Mix(hs, 1)))
	return gw, sf, pwr, ok
}

// checkFastest fails t if fastestSF answers for offset (dx, dy) and units
// (u1, u2) with anything but refLink's ADRFastestSNR choice, and reports
// whether it answered.
func checkFastest(t testing.TB, c *core, dx, dy, u1, u2 float64) bool {
	t.Helper()
	sf, ok, sure := c.fastestSF(dx*dx+dy*dy, u1, u2)
	if !sure {
		return false
	}
	if wsf, wpwr, wok := refLink(c, ADRFastestSNR, dx, dy, u1, u2); sf != wsf || ok != wok || wpwr != defaultPwrIdx {
		t.Fatalf("fastestSF(d=(%g, %g), u1=%b, u2=%b) = (SF%d, %v), the definition says (SF%d, pwr %d, %v)",
			dx, dy, u1, u2, sf, ok, wsf, wpwr, wok)
	}
	return true
}

// checkChannel fails t if channelOf disagrees with refChannel under any
// policy.
func checkChannel(t testing.TB, c *core, x, y float64, hs uint64) {
	t.Helper()
	for _, p := range ADRPolicies() {
		gw, sf, pwr, ok := c.channelOf(p, x, y, hs)
		wgw, wsf, wpwr, wok := refChannel(c, p, x, y, hs)
		if gw != wgw || sf != wsf || pwr != wpwr || ok != wok {
			t.Fatalf("side %g, %d gateways, %v: channelOf(%g, %g, %#x) = (gw %d, SF%d, pwr %d, %v), the definition says (gw %d, SF%d, pwr %d, %v)",
				c.sideM, len(c.gwPosX), p, x, y, hs, gw, sf, pwr, ok, wgw, wsf, wpwr, wok)
		}
	}
}

// linkCore is a defaulted core over a city of the given side and gateway
// count; only its topology and link budget are read.
func linkCore(side float64, gateways int, seed uint64) *core {
	return newCore(Config{
		Scheme: mac.SchemeChoir, Nodes: 1, Gateways: gateways, Slots: 1, SideM: side,
		Receiver: mac.AlohaReceiver{}, Seed: seed,
	})
}

// thresholds are the SF ladder's rungs DemodThresholdDB(sf)+1, SF7 to SF12;
// the last is also the unreachable edge.
func thresholds() (t [6]float64) {
	for j := range t {
		t[j] = sim.DemodThresholdDB(lora.SF7+lora.SpreadingFactor(j)) + 1
	}
	return t
}

// flipAt returns the smallest float64 in (lo, hi] where above turns false,
// for an above that is true at lo, false at hi and monotone between.
func flipAt(lo, hi float64, above func(float64) bool) float64 {
	a, b := math.Float64bits(lo), math.Float64bits(hi)
	for b-a > 1 {
		if m := a + (b-a)/2; above(math.Float64frombits(m)) {
			a = m
		} else {
			b = m
		}
	}
	return math.Float64frombits(b)
}

// TestFirstWakeMatchesReference holds channelOf's route to the definition:
// on hashed positions and shadow draws over seven city layouts, for every
// policy; at distances a few ulps either side of where each of the six
// thresholds flips the definition's answer, where the route must fall back,
// and 10·snrGuard either side, where it must answer; at both distance
// clamps; at square distances that are no normal; and at u1 = k·2^-53 for
// small k, the draws whose shadowing root amplifies lnUnit's error most.
func TestFirstWakeMatchesReference(t *testing.T) {
	draws := 50_000
	if testing.Short() {
		draws = 5_000
	}
	layouts := []struct {
		side     float64
		gateways int
	}{{0, 1}, {0, 4}, {0, 16}, {500, 1}, {3000, 9}, {20_000, 16}, {1e6, 2}}
	var routed, total int
	for li, l := range layouts {
		c := linkCore(l.side, l.gateways, uint64(li)+1)
		h := exec.Start(uint64(li) + 100)
		for k := 0; k < draws; k++ {
			h = exec.Mix(h, uint64(k))
			x := unitOf(exec.Mix(h, 0)) * c.sideM
			y := unitOf(exec.Mix(h, 1)) * c.sideM
			hs := exec.Mix(h, 2)
			checkChannel(t, c, x, y, hs)
			_, dx, dy := c.gatewayOf(x, y)
			if checkFastest(t, c, dx, dy, unitOf(exec.Mix(hs, 0)), unitOf(exec.Mix(hs, 1))) {
				routed++
			}
			total++
		}
	}
	t.Logf("hashed: the route answered %d of %d links (%d fell back)", routed, total, total-routed)

	c := linkCore(0, 1, 1)
	units := [][2]float64{{0.5, 0.25}, {0.3, 0}, {0.9, 0.5}, {1 - ulp53, 0.1}, {ulp53, 0.7}}
	h := exec.Start(42)
	for k := 0; k < 8; k++ {
		h = exec.Mix(h, uint64(k))
		units = append(units, [2]float64{unitOf(exec.Mix(h, 0)), unitOf(exec.Mix(h, 1))})
	}
	for j, thr := range thresholds() {
		for _, u := range units {
			u1, u2 := u[0], u[1]
			above := func(d float64) bool {
				sf, _, ok := refLink(c, ADRFastestSNR, d, 0, u1, u2)
				return ok && int(sf) <= 7+j
			}
			z := refZ(u1, u2)
			at := func(snr float64) float64 { // the distance whose SNR is snr
				return math.Pow(10, (sim.ClientPowerDBm-c.noiseFloor-c.pl.RefLossDB-c.shadowSig*z-snr)/(10*c.pl.Exponent))
			}
			lo, hi := at(thr)*0.99, at(thr)*1.01
			if !above(lo) || above(hi) {
				t.Fatalf("threshold %g, u=(%g, %g): the definition does not flip between d = %g and %g", thr, u1, u2, lo, hi)
			}
			d := flipAt(lo, hi, above)
			for k := int64(-8); k <= 8; k++ {
				dk := ulps(d, k)
				if checkFastest(t, c, dk, 0, u1, u2) {
					t.Fatalf("threshold %g, u=(%g, %g): the route answered at d = %b, %d ulps from the flip", thr, u1, u2, dk, k)
				}
			}
			for _, off := range []float64{-10 * snrGuard, 10 * snrGuard} {
				if !checkFastest(t, c, at(thr+off), 0, u1, u2) {
					t.Fatalf("threshold %g, u=(%g, %g): the route fell back %g dB from it", thr, u1, u2, off)
				}
			}
		}
	}

	// Both clamps: d below 1 m reads 1 m (channelOf), below RefDistance
	// reads RefDistance (LossDB); RefDistances below and above 1 m separate
	// the two. A 136 dB reference loss puts the SNR at the clamps, about
	// -12 dB - σ·z, among the thresholds.
	for _, ref := range []float64{0.5, 1, 2.5} {
		cr := linkCore(0, 1, 1)
		cr.pl.RefDistance, cr.pl.RefLossDB = ref, 136
		for _, d := range []float64{0, 1e-300, 0.5, math.Nextafter(1, 0), 1, math.Nextafter(1, 2), 2,
			math.Nextafter(ref, 0), ref, math.Nextafter(ref, 3), 3} {
			for _, u := range units {
				checkFastest(t, cr, d, 0, u[0], u[1])
				checkFastest(t, cr, 0, d, u[0], u[1])
				checkFastest(t, cr, d/math.Sqrt2, d/math.Sqrt2, u[0], u[1])
			}
		}
	}

	// d² past MaxFloat64, or NaN, is no normal for lnUnit: the exact path.
	for _, d2 := range []float64{math.Inf(1), math.NaN()} {
		if _, _, sure := c.fastestSF(d2, 0.5, 0.25); sure {
			t.Fatalf("fastestSF(%g, ...) answered", d2)
		}
	}
	for _, d := range []float64{1e150, 1e154, 1e200} {
		for _, u := range units {
			checkFastest(t, c, d, d, u[0], u[1])
		}
	}

	// u1 = k·2^-53: at k = 0 lnUnit(1) is positive, the root NaN, and the
	// route must fall back; above it, sqrt amplifies lnUnit's error near 1.
	for k := 0; k < 4096; k++ {
		u1 := float64(k) * ulp53
		for _, u2 := range []float64{0, 0.125, 0.25, 0.5, 0.75, 0.9} {
			for _, d := range []float64{1, 80, 385, 500, 700, 876, 2000} {
				if checkFastest(t, c, d, 0, u1, u2) && k == 0 {
					t.Fatalf("u1 = 0, u2 = %g, d = %g: the route answered", u2, d)
				}
			}
		}
	}
}

// FuzzFirstWake holds channelOf to the definition on whatever seed, city,
// position and shadowing draw the fuzzer finds, and fastestSF on whatever
// square distance and first shadowing unit.
func FuzzFirstWake(f *testing.F) {
	f.Add(uint64(1), 0.0, uint8(1), uint64(2), uint64(3), uint64(4), math.Float64bits(250_000), uint64(1))
	f.Add(uint64(2), 500.0, uint8(16), uint64(5), uint64(6), uint64(7), math.Float64bits(1), uint64(0))
	f.Add(uint64(3), 20_000.0, uint8(9), uint64(8), uint64(9), uint64(10), math.Float64bits(1e300), uint64(1<<53-1))
	f.Add(uint64(4), 1e6, uint8(2), uint64(11), uint64(12), uint64(13), math.Float64bits(math.Inf(1)), uint64(17))
	f.Fuzz(func(t *testing.T, seed uint64, side float64, gateways uint8, xh, yh, hs, d2Bits, u1k uint64) {
		if !(side >= 0 && side <= 1e12) || gateways == 0 {
			t.Skip()
		}
		c := linkCore(side, int(gateways), seed)
		checkChannel(t, c, unitOf(xh)*c.sideM, unitOf(yh)*c.sideM, exec.Mix(c.hShadow, hs))
		d := math.Sqrt(math.Abs(math.Float64frombits(d2Bits)))
		checkFastest(t, c, d, 0, float64(u1k%(1<<53))*ulp53, unitOf(hs))
	})
}

// TestFirstWakeFallbackRate walks every node of the city_sparse benchmark's
// configuration through its first wake, as resolveChannel forms it, and
// fails if more than 1e-4 of them leave the route for the exact path; every
// one the route answers is held to the definition.
func TestFirstWakeFallbackRate(t *testing.T) {
	cfg := Config{
		Scheme: mac.SchemeChoir, Nodes: 1_000_000, Gateways: 16, Slots: 50_000,
		ArrivalPerSlot: 2e-5, Receiver: mac.AlohaReceiver{}, Seed: 7,
	}
	c := newCore(cfg)
	fell := 0
	for i := 0; i < cfg.Nodes; i++ {
		hp := exec.Mix(c.hPos, uint64(i))
		x := (float64(i%c.grid) + unitOf(exec.Mix(hp, 0))) * c.cellM
		y := (float64(i/c.grid) + unitOf(exec.Mix(hp, 1))) * c.cellM
		hs := exec.Mix(c.hShadow, uint64(i))
		_, dx, dy := c.gatewayOf(x, y)
		u1, u2 := unitOf(exec.Mix(hs, 0)), unitOf(exec.Mix(hs, 1))
		if !checkFastest(t, c, dx, dy, u1, u2) {
			fell++
		}
	}
	rate := float64(fell) / float64(cfg.Nodes)
	t.Logf("city_sparse first wakes: %d of %d fell back to the exact path (%.2g)", fell, cfg.Nodes, rate)
	if rate > 1e-4 {
		t.Fatalf("fallback rate %.2g exceeds 1e-4", rate)
	}
}

// TestLnUnitAccuracy holds lnUnit to the bounds the two guards assume: 2e-13
// of 1+|ln v| over the arrival draws' (0, 1] and the first wake's square
// distances, 1 up to MaxFloat64; 6e-15 absolute on [1-2^-8, 1), where
// fastestSF's square root amplifies it; and a positive reading at v = 1,
// which sends u1 = 0 to the exact path. It also checks fastestSF's budget
// arithmetic against snrGuard.
func TestLnUnitAccuracy(t *testing.T) {
	const rel, nearOne = 2e-13, 6e-15
	draws := 5_000_000
	if testing.Short() {
		draws = 500_000
	}
	var worstUnit, worstBig, worstNear float64
	h := exec.Start(1)
	for k := 0; k < draws; k++ {
		h = exec.Mix(h, uint64(k))
		u := unitOf(h)
		// Arrival draws: v = 1-u, exact; a third scaled toward 0.
		v, want := 1-u, math.Log1p(-u)
		if k%3 == 0 {
			s := math.Ldexp(1, -int(h%50))
			v, want = v*s, math.Log(v*s)
		}
		if e := math.Abs(lnUnit(v)-want) / (1 + math.Abs(want)); e > worstUnit {
			worstUnit = e
		}
		// Square distances: log-uniform over [1, MaxFloat64).
		big := math.Exp2(u * 1024)
		if big > math.MaxFloat64 {
			big = math.MaxFloat64
		}
		if e := math.Abs(lnUnit(big)-math.Log(big)) / (1 + math.Log(big)); e > worstBig {
			worstBig = e
		}
		// The top table step, [1-2^-8, 1): 1-v is exact there.
		w := 1 - math.Ldexp(u, -8)
		if w < 1 {
			if e := math.Abs(lnUnit(w) - math.Log1p(w-1)); e > worstNear {
				worstNear = e
			}
		}
	}
	for k := 1; k < 4_000_000; k++ {
		if e := math.Abs(lnUnit(1-float64(k)*ulp53) - math.Log1p(-float64(k)*ulp53)); e > worstNear {
			worstNear = e
		}
	}
	for _, v := range []float64{1, 2, 0.5, math.MaxFloat64, 0x1p-1022} {
		if e := math.Abs(lnUnit(v)-math.Log(v)) / (1 + math.Abs(math.Log(v))); e > worstBig {
			worstBig = e
		}
	}
	t.Logf("worst lnUnit error: %.3g of 1+|ln| on (0, 1], %.3g on [1, MaxFloat64], %.3g absolute on [1-2^-8, 1)", worstUnit, worstBig, worstNear)
	if worstUnit > rel || worstBig > rel || worstNear > nearOne {
		t.Fatalf("lnUnit exceeds its bounds (%g of 1+|ln|, %g near 1)", rel, nearOne)
	}
	if l := lnUnit(1); !(l > 0) {
		t.Fatalf("lnUnit(1) = %g; fastestSF counts on a positive reading to send u1 = 0 to the exact path", l)
	}

	// fastestSF's budget: σ·sqrt(2·nearOne) through the shadowing root, the
	// median loss's (5·n/ln 10)·rel·(1+ln MaxFloat64), under 1e-6 dB in all;
	// snrGuard is at least 100 times that.
	pl := sim.UrbanChannel()
	budget := pl.ShadowSigmaDB*math.Sqrt(2*nearOne) + 5*pl.Exponent/math.Ln10*rel*(1+math.Log(math.MaxFloat64))
	t.Logf("first-wake SNR error budget %.3g dB, snrGuard %g dB", budget, float64(snrGuard))
	if budget > 1e-6 || snrGuard < 100*1e-6 {
		t.Fatalf("budget %g dB against snrGuard %g dB: the guard is not 100 times a 1e-6 dB budget", budget, float64(snrGuard))
	}
}
