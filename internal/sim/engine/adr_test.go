package engine

import (
	"strings"
	"testing"

	"choir/internal/mac"
)

// testCore builds a minimal defaulted core for exercising adrSelect
// directly; the single-gateway default city puts the gateway at the square
// center, but adrSelect itself only sees (policy, distance, shadowing).
func testCore(t *testing.T) *core {
	t.Helper()
	cfg := Config{Scheme: mac.SchemeChoir, Nodes: 1, Slots: 1, Receiver: mac.AlohaReceiver{}}
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

// TestADRFastestSNRMatchesLegacy pins the bit-identity contract of the zero
// value: a config that never mentions ADR must run exactly the pre-ADR
// engine, which adrSelect's default arm reproduces float-op for float-op.
// (The equivalence suite covers whole-run identity; this covers the
// per-link decision at the SF boundaries where a single ULP would flip it.)
func TestADRFastestSNRMatchesLegacy(t *testing.T) {
	c := testCore(t)
	for _, d := range []float64{1, 50, 123.456, 385, 385.5, 500, 876, 877, 1500} {
		for _, z := range []float64{-3, -0.7, 0, 0.7, 3} {
			sf, pwr, ok := c.adrSelect(ADRFastestSNR, d, z)
			if ok && (sf < 7 || sf > 12) {
				t.Fatalf("d=%g z=%g: SF%d out of range", d, z, sf)
			}
			if ok && pwr != defaultPwrIdx {
				t.Fatalf("d=%g z=%g: fastest-SNR picked pwr %d, want full power", d, z, pwr)
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
