package choir

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"choir/internal/lora"
)

// TestDecodeRejectsNaNPoisonedFrame is the regression test for the original
// bug: a single NaN sample used to propagate through every FFT and come back
// as garbage users instead of an error.
func TestDecodeRejectsNaNPoisonedFrame(t *testing.T) {
	spec := defaultSpec(2, 1)
	sig := synthesize(t, spec)
	sig[len(sig)/3] = complex(math.NaN(), 0)
	d := MustNew(DefaultConfig(spec.params))
	res, err := d.Decode(context.Background(), sig, len(spec.payloads[0]))
	if !errors.Is(err, ErrBadIQ) {
		t.Fatalf("Decode(NaN frame) = %v, %v; want ErrBadIQ", res, err)
	}
}

func TestDecodeRejectsInfPoisonedFrame(t *testing.T) {
	spec := defaultSpec(1, 2)
	sig := synthesize(t, spec)
	sig[0] = complex(0, math.Inf(-1))
	d := MustNew(DefaultConfig(spec.params))
	if _, err := d.Decode(context.Background(), sig, len(spec.payloads[0])); !errors.Is(err, ErrBadIQ) {
		t.Fatalf("Decode(Inf frame) err = %v, want ErrBadIQ", err)
	}
}

func TestDetectTeamRejectsNaNPoisonedFrame(t *testing.T) {
	spec := defaultSpec(1, 3)
	sig := synthesize(t, spec)
	sig[7] = complex(math.NaN(), math.NaN())
	d := MustNew(DefaultConfig(spec.params))
	if _, err := d.DetectTeam(sig); !errors.Is(err, ErrBadIQ) {
		t.Fatalf("DetectTeam(NaN frame) err = %v, want ErrBadIQ", err)
	}
	if _, err := d.DecodeTeam(context.Background(), sig, len(spec.payloads[0])); !errors.Is(err, ErrBadIQ) {
		t.Fatalf("DecodeTeam(NaN frame) err = %v, want ErrBadIQ", err)
	}
}

func TestDecodeRejectsSaturatedFrame(t *testing.T) {
	spec := defaultSpec(1, 4)
	sig := synthesize(t, spec)
	// Severe clipping: rail far below the envelope pins both quadratures of
	// most samples at ±rail.
	peak := 0.0
	for _, v := range sig {
		peak = math.Max(peak, math.Max(math.Abs(real(v)), math.Abs(imag(v))))
	}
	rail := 0.05 * peak
	lim := func(v float64) float64 { return math.Max(-rail, math.Min(rail, v)) }
	for i, v := range sig {
		sig[i] = complex(lim(real(v)), lim(imag(v)))
	}
	d := MustNew(DefaultConfig(spec.params))
	if _, err := d.Decode(context.Background(), sig, len(spec.payloads[0])); !errors.Is(err, ErrSaturated) {
		t.Fatalf("Decode(saturated frame) err = %v, want ErrSaturated", err)
	}
}

// TestDecodeAcceptsCleanAndMildlyClippedFrames guards against the saturation
// detector false-positiving: constant-envelope chirps (clean or lightly
// clipped) must decode as before.
func TestDecodeAcceptsCleanAndMildlyClippedFrames(t *testing.T) {
	spec := defaultSpec(2, 1)
	sig := synthesize(t, spec)
	d := MustNew(DefaultConfig(spec.params))
	if _, err := d.Decode(context.Background(), sig, len(spec.payloads[0])); err != nil {
		t.Fatalf("clean frame rejected: %v", err)
	}

	// Mild clipping at 80 % of peak: waveform is degraded but not pinned.
	peak := 0.0
	for _, v := range sig {
		peak = math.Max(peak, math.Max(math.Abs(real(v)), math.Abs(imag(v))))
	}
	rail := 0.8 * peak
	lim := func(v float64) float64 { return math.Max(-rail, math.Min(rail, v)) }
	for i, v := range sig {
		sig[i] = complex(lim(real(v)), lim(imag(v)))
	}
	if _, err := d.Decode(context.Background(), sig, len(spec.payloads[0])); err != nil {
		t.Fatalf("mildly clipped frame rejected: %v", err)
	}
}

func TestTrackingLostIsTyped(t *testing.T) {
	// Drive decodeData with a buffer holding the preamble but only a couple
	// of data windows: most symbols can never be decided, so the per-user
	// error must be the typed ErrTrackingLost, not a payload/CRC error.
	spec := defaultSpec(1, 5)
	sig := synthesize(t, spec)
	d := MustNew(DefaultConfig(spec.params))
	ests := d.estimatePreamble(sig)
	if len(ests) == 0 {
		t.Fatal("no users in preamble")
	}
	cut := (spec.params.HeaderSymbols() + 2) * spec.params.N()
	users := d.decodeData(&Result{}, sig[:cut], ests, len(spec.payloads[0]))
	if len(users) == 0 {
		t.Fatal("no users returned")
	}
	u := users[0]
	if u.Decoded() {
		t.Fatal("user decoded from two data windows")
	}
	if !errors.Is(u.Err, ErrTrackingLost) {
		t.Fatalf("User.Err = %v, want ErrTrackingLost", u.Err)
	}
}

func TestValidateIQEdgeCases(t *testing.T) {
	if err := ValidateIQ(nil); err != nil {
		t.Errorf("ValidateIQ(nil) = %v", err)
	}
	if err := ValidateIQ(make([]complex128, 64)); err != nil {
		t.Errorf("ValidateIQ(all-zero) = %v; zero signal is not saturation", err)
	}
}

// TestValidateIQNamesFirstNonFinite holds ValidateIQ's one pass to the rule
// it folds: a non-finite sample anywhere, after the peak sample too, or in a
// capture that is also saturated, is ErrBadIQ naming the first non-finite
// sample, and a finite capture is judged on saturation alone.
func TestValidateIQNamesFirstNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	clean := func() []complex128 {
		x := make([]complex128, 64)
		for i := range x {
			x[i] = complex(math.Cos(float64(i)), math.Sin(float64(i)))
		}
		x[10] = complex(3, -3) // the peak
		return x
	}
	cases := []struct {
		name  string
		edit  func(x []complex128)
		first int
	}{
		{"NaN after the peak", func(x []complex128) { x[40] = complex(0.5, nan) }, 40},
		{"NaN before the peak", func(x []complex128) { x[3] = complex(nan, 0) }, 3},
		{"Inf then NaN", func(x []complex128) { x[20] = complex(-inf, 0); x[30] = complex(nan, nan) }, 20},
		{"NaN then a larger peak", func(x []complex128) { x[5] = complex(nan, 1); x[50] = complex(1e300, 0) }, 5},
		{"last sample", func(x []complex128) { x[63] = complex(0, -inf) }, 63},
		{"saturated with a NaN", func(x []complex128) {
			for i := range x {
				x[i] = complex(3, -3)
			}
			x[61] = complex(nan, 3)
		}, 61},
	}
	for _, c := range cases {
		x := clean()
		c.edit(x)
		err := ValidateIQ(x)
		if !errors.Is(err, ErrBadIQ) {
			t.Fatalf("%s: ValidateIQ = %v, want ErrBadIQ", c.name, err)
		}
		want := fmt.Sprintf("sample %d = (%g,%g)", c.first, real(x[c.first]), imag(x[c.first]))
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: ValidateIQ = %q, want it to name %q", c.name, err, want)
		}
	}
	if err := ValidateIQ(clean()); err != nil {
		t.Errorf("clean capture: ValidateIQ = %v", err)
	}
	sat := clean()
	for i := range sat[:40] {
		sat[i] = complex(-3, 3)
	}
	if err := ValidateIQ(sat); !errors.Is(err, ErrSaturated) {
		t.Errorf("saturated capture: ValidateIQ = %v, want ErrSaturated", err)
	}
}

// TestNewValidationTunables covers every field of the former silent-clamp
// bug: negative (and NaN, for floats) values must error; zero must take
// DefaultConfig's value and leave every other field as given.
func TestNewValidationTunables(t *testing.T) {
	p := lora.DefaultParams()
	base := func() Config {
		c := DefaultConfig(p)
		return c
	}

	bad := []func(*Config){
		func(c *Config) { c.FineIters = -1 },
		func(c *Config) { c.SICPhases = -1 },
		func(c *Config) { c.MatchTolerance = -0.01 },
		func(c *Config) { c.MatchTolerance = math.NaN() },
		func(c *Config) { c.DynamicRangeDB = -3 },
		func(c *Config) { c.DynamicRangeDB = math.NaN() },
		func(c *Config) { c.TotalDynamicRangeDB = -3 },
		func(c *Config) { c.TotalDynamicRangeDB = math.NaN() },
	}
	for i, mutate := range bad {
		cfg := base()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("bad case %d accepted: %+v", i, cfg)
		}
	}

	// Zero values take DefaultConfig's, on a config whose other fields are
	// not the defaults, so a fill from anywhere else shows.
	cfg := Config{LoRa: p, MaxUsers: 3, PeakThreshold: 4, SICPhases: 1}
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("zero-valued tunables rejected: %v", err)
	}
	def := DefaultConfig(p)
	want := cfg
	want.FineIters = def.FineIters
	want.MatchTolerance = def.MatchTolerance
	want.DynamicRangeDB = def.DynamicRangeDB
	want.TotalDynamicRangeDB = def.TotalDynamicRangeDB
	if got := d.Config(); got != want {
		t.Errorf("New filled %+v, want %+v", got, want)
	}
	// SICPhases 0 is a meaningful setting (SIC disabled), not a default.
	cfg.SICPhases = 0
	if got := MustNew(cfg).Config().SICPhases; got != 0 {
		t.Errorf("SICPhases 0 changed by New: %d", got)
	}
}
