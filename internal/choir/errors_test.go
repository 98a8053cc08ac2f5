package choir

import (
	"context"
	"errors"
	"math"
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
	if err := validateIQ(nil); err != nil {
		t.Errorf("validateIQ(nil) = %v", err)
	}
	if err := validateIQ(make([]complex128, 64)); err != nil {
		t.Errorf("validateIQ(all-zero) = %v; zero signal is not saturation", err)
	}
}

// TestNewValidationTunables covers every field of the former silent-clamp
// bug: negative (and NaN, for floats) values must error; zero must default.
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

	// Zero values take documented defaults.
	cfg := base()
	cfg.FineIters = 0
	cfg.MatchTolerance = 0
	cfg.DynamicRangeDB = 0
	cfg.TotalDynamicRangeDB = 0
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("zero-valued tunables rejected: %v", err)
	}
	got := d.Config()
	if got.FineIters != 16 || got.MatchTolerance != 0.07 ||
		got.DynamicRangeDB != 10 || got.TotalDynamicRangeDB != 35 {
		t.Errorf("defaults not applied: %+v", got)
	}
	// SICPhases 0 is a meaningful setting (SIC disabled), not a default.
	if got.SICPhases != base().SICPhases {
		t.Errorf("SICPhases changed by New: %d", got.SICPhases)
	}
}
