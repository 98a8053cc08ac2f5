package engine

import (
	"strings"
	"testing"

	"choir/internal/mac"
	"choir/internal/sim"
)

// testCore builds a minimal defaulted core for exercising adrSelect
// directly; the single-gateway default city puts the gateway at the square
// center, but adrSelect itself only sees (policy, distance, shadowing).
func testCore(t *testing.T) *core {
	t.Helper()
	cfg := Config{Scheme: mac.SchemeChoir, Nodes: 1, Slots: 1, Receiver: mac.AlohaReceiver()}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return newCore(cfg)
}

// TestADRSelectKnownGrid pins each policy's SF/TX-power choice at known
// distance and shadowing points. The expected values follow from the fixed
// urban link budget: loss(d) = 40 + 35·log10(d) dB, noise floor -110 dBm,
// client power 14 dBm, demod threshold -7.5 - 2.5·(SF-7) dB with the 1 dB
// adaptation margin — e.g. at 100 m the SNR is 14 dB (SF7 everywhere), at
// 500 m it is -10.5 dB (SF9), and past ~877 m even SF12's budget fails.
func TestADRSelectKnownGrid(t *testing.T) {
	c := testCore(t)
	cases := []struct {
		name    string
		policy  ADRPolicy
		d, z    float64
		wantSF  int8
		wantPwr uint8
		wantOK  bool
	}{
		// Fastest-rate-for-SNR: SF tracks the shadowed link budget.
		{"snr-near", ADRFastestSNR, 100, 0, 7, 4, true},
		{"snr-mid", ADRFastestSNR, 500, 0, 9, 4, true},
		{"snr-edge", ADRFastestSNR, 860, 0, 12, 4, true},
		{"snr-out", ADRFastestSNR, 2000, 0, 0, 0, false},
		// Positive shadowing (deeper loss) slows the chosen rate; negative
		// speeds it up.
		{"snr-shadowed", ADRFastestSNR, 500, 1, 11, 4, true},
		{"snr-boosted", ADRFastestSNR, 500, -2, 7, 4, true},
		// Fixed SF12: always the slowest rate, range-checked at SF12.
		{"sf12-near", ADRFixedSF12, 100, 0, 12, 4, true},
		{"sf12-mid", ADRFixedSF12, 500, 0, 12, 4, true},
		{"sf12-out", ADRFixedSF12, 2000, 0, 0, 0, false},
		// Distance-optimized: the SF comes from the median budget alone, so
		// with z=0 it matches fastest-SNR...
		{"dist-near", ADRDistance, 100, 0, 7, 4, true},
		{"dist-mid", ADRDistance, 500, 0, 9, 4, true},
		// ...but a shadowed node that overshoots its distance-chosen SF is
		// unreachable, where fastest-SNR would simply fall back to SF9.
		{"dist-overshoot", ADRDistance, 100, 4, 0, 0, false},
		{"dist-lucky", ADRDistance, 500, -2, 9, 4, true},
		// TX-power-optimized: distance SF plus the lowest power rung whose
		// median SNR clears the threshold (rungs 2,5,8,11,14 dBm). At 100 m
		// even 2 dBm has 8.5 dB of margin over SF7's -6.5 dB threshold; at
		// 300 m SF7 needs ≥ 10.2 dBm (rung 11); at 500 m SF9 needs
		// ≥ 13 dBm (back to full power).
		{"power-near", ADRTxPower, 100, 0, 7, 0, true},
		{"power-mid", ADRTxPower, 300, 0, 7, 3, true},
		{"power-far", ADRTxPower, 500, 0, 9, 4, true},
		// The reduced rung shrinks the real link margin: shadowing that the
		// full-power policies would absorb kills the down-powered link.
		{"power-overshoot", ADRTxPower, 100, 2, 0, 0, false},
	}
	for _, tc := range cases {
		sf, pwr, ok := c.adrSelect(tc.policy, tc.d, tc.z)
		if ok != tc.wantOK {
			t.Errorf("%s: adrSelect(%v, d=%g, z=%g) ok = %v, want %v", tc.name, tc.policy, tc.d, tc.z, ok, tc.wantOK)
			continue
		}
		if !ok {
			continue
		}
		if sf != tc.wantSF || pwr != tc.wantPwr {
			t.Errorf("%s: adrSelect(%v, d=%g, z=%g) = (SF%d, pwr %d), want (SF%d, pwr %d)",
				tc.name, tc.policy, tc.d, tc.z, sf, pwr, tc.wantSF, tc.wantPwr)
		}
	}
}

// legacySNR is the pre-ADR engine's link SNR, float op for float op: the
// median loss plus the shadowing term, from the client power over the
// noise floor.
func legacySNR(d, z float64) float64 {
	pl := sim.UrbanChannel()
	loss := pl.LossDB(d, nil) + pl.ShadowSigmaDB*z
	return sim.ClientPowerDBm - loss - sim.ReceiverConfig().NoiseFloorDBm
}

// legacySF is the pre-ADR engine's SF for legacySNR: the ladder alone.
func legacySF(d, z float64) (int8, bool) {
	sf, ok := sim.SFForSNR(legacySNR(d, z))
	if !ok {
		return -1, false
	}
	return int8(sf), true
}

// TestADRFastestSNRMatchesLegacy pins the bit-identity contract of the zero
// value: a config that never mentions ADR must run exactly the pre-ADR
// engine, which adrSelect's default arm reproduces float-op for float-op.
// (The equivalence suite covers whole-run identity; this covers the
// per-link decision at the SF boundaries where a single ULP would flip it:
// on a grid, at (d, z) whose SNR lands exactly on each threshold, and a few
// ulps of d either side of where each threshold flips the answer.)
func TestADRFastestSNRMatchesLegacy(t *testing.T) {
	c := testCore(t)
	check := func(d, z float64) {
		t.Helper()
		sf, pwr, ok := c.adrSelect(ADRFastestSNR, d, z)
		wsf, wok := legacySF(d, z)
		if ok != wok || sf != wsf || pwr != defaultPwrIdx {
			t.Fatalf("d=%b z=%b: adrSelect = (SF%d, pwr %d, %v), legacy (SF%d, full power, %v)", d, z, sf, pwr, ok, wsf, wok)
		}
	}
	for _, d := range []float64{1, 50, 123.456, 385, 385.5, 500, 876, 877, 1500} {
		for _, z := range []float64{-3, -0.7, 0, 0.7, 3} {
			check(d, z)
		}
	}
	for _, thr := range thresholds() {
		landed := 0
		for _, d := range []float64{1, 2, 100, 385, 500, 700, 876} {
			// z near where d's SNR is thr, then every z within 64 ulps: those
			// whose SNR is thr exactly are the points a ULP would flip.
			z0 := (sim.ClientPowerDBm - sim.ReceiverConfig().NoiseFloorDBm - c.pl.LossDB(d, nil) - thr) / c.shadowSig
			for k := int64(-64); k <= 64; k++ {
				z := ulps(z0, k)
				if legacySNR(d, z) == thr {
					landed++
				}
				check(d, z)
			}
		}
		if landed == 0 {
			t.Fatalf("threshold %g: no point landed exactly on it", thr)
		}
		t.Logf("threshold %g: %d points land exactly on it", thr, landed)
		for _, z := range []float64{-2, 0, 1.5} {
			above := func(d float64) bool { return legacySNR(d, z) >= thr }
			d := flipAt(1, 1e6, above)
			for k := int64(-6); k <= 6; k++ {
				check(ulps(d, k), z)
			}
		}
	}
}

// TestADRPolicyStrings pins one distinct name per policy: the interference
// sweep's variant columns are built from them.
func TestADRPolicyStrings(t *testing.T) {
	if got := len(ADRPolicies()); got != int(numADRPolicies) {
		t.Fatalf("ADRPolicies() has %d entries, want %d", got, int(numADRPolicies))
	}
	seen := map[string]bool{}
	for _, p := range ADRPolicies() {
		name := p.String()
		if strings.HasPrefix(name, "ADRPolicy(") || seen[name] {
			t.Errorf("policy %d has no name of its own: %q", int(p), name)
		}
		seen[name] = true
	}
}
