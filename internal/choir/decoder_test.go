package choir

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"choir/internal/channel"
	"choir/internal/dsp"
	"choir/internal/lora"
	"choir/internal/radio"
)

// collisionSpec describes one synthetic collision for tests.
type collisionSpec struct {
	params    lora.Params
	payloads  [][]byte
	ppms      []float64 // per-user oscillator error
	timings   []float64 // per-user timing offset in seconds
	gainsDBm  []float64 // per-user received power in dBm (after path loss)
	noiseDBm  float64   // noise floor (use -300 for effectively none)
	carrierHz float64
	seed      uint64
}

// synthesize renders the collision to baseband samples.
func synthesize(t testing.TB, spec collisionSpec) []complex128 {
	t.Helper()
	rng := rand.New(rand.NewPCG(spec.seed, spec.seed^0xABCDEF))
	m := lora.MustModem(spec.params)
	if spec.carrierHz == 0 {
		spec.carrierHz = 902e6
	}
	var emissions []channel.Emission
	maxLen := 0
	for i, payload := range spec.payloads {
		tx := &radio.Transmitter{
			ID:           i,
			Osc:          radio.Oscillator{PPM: spec.ppms[i]},
			TimingOffset: spec.timings[i],
			Phase:        rng.Float64() * 2 * math.Pi,
		}
		sig, whole := tx.Transmit(m, payload, spec.carrierHz)
		amp := radio.AmplitudeFromDBm(spec.gainsDBm[i])
		emissions = append(emissions, channel.Emission{
			Samples:     sig,
			StartSample: whole,
			Gain:        complex(amp, 0),
		})
		if l := whole + len(sig); l > maxLen {
			maxLen = l
		}
	}
	// The timeline must cover a full frame from the nominal slot start even
	// when every user transmits early (negative whole-sample delays).
	if frameLen := spec.params.FrameSamples(len(spec.payloads[0])) + spec.params.N(); frameLen > maxLen {
		maxLen = frameLen
	}
	cfg := channel.Config{NoiseFloorDBm: spec.noiseDBm}
	return channel.Combine(maxLen, emissions, cfg, rng)
}

func defaultSpec(nUsers int, seed uint64) collisionSpec {
	p := lora.DefaultParams()
	rng := rand.New(rand.NewPCG(seed, 99))
	spec := collisionSpec{
		params:   p,
		noiseDBm: -40, // ~40 dB below 0 dBm users: comfortable SNR
		seed:     seed,
	}
	symbolT := float64(p.N()) / p.Bandwidth
	for i := 0; i < nUsers; i++ {
		payload := make([]byte, 8)
		for b := range payload {
			payload[b] = byte(rng.IntN(256))
		}
		spec.payloads = append(spec.payloads, payload)
		spec.ppms = append(spec.ppms, (rng.Float64()*2-1)*15)
		spec.timings = append(spec.timings, rng.NormFloat64()*0.02*symbolT)
		spec.gainsDBm = append(spec.gainsDBm, 0)
	}
	return spec
}

// matchPayloads checks every expected payload was decoded by exactly one user.
func matchPayloads(t *testing.T, res *Result, want [][]byte) {
	t.Helper()
	decoded := res.DecodedPayloads()
	if len(decoded) != len(want) {
		t.Fatalf("decoded %d payloads, want %d (users=%d)", len(decoded), len(want), len(res.Users))
	}
	used := make([]bool, len(decoded))
	for _, w := range want {
		found := false
		for i, g := range decoded {
			if !used[i] && bytes.Equal(g, w) {
				used[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("payload %x not decoded (got %x)", w, decoded)
		}
	}
}

func TestDecodeSingleUser(t *testing.T) {
	spec := defaultSpec(1, 1)
	sig := synthesize(t, spec)
	d := MustNew(DefaultConfig(spec.params))
	res, err := d.Decode(context.Background(), sig, len(spec.payloads[0]))
	if err != nil {
		t.Fatal(err)
	}
	matchPayloads(t, res, spec.payloads)
}

func TestDecodeTwoUserCollision(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		spec := defaultSpec(2, seed)
		sig := synthesize(t, spec)
		d := MustNew(DefaultConfig(spec.params))
		res, err := d.Decode(context.Background(), sig, len(spec.payloads[0]))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		matchPayloads(t, res, spec.payloads)
	}
}

func TestDecodeIdenticalPayloadCollision(t *testing.T) {
	// The motivating example of Sec. 4: two users sending the SAME bits.
	// Without offset separation the collision would be ambiguous. (Seed
	// chosen so the users' fractional offsets are distinct; nearly-equal
	// fractional offsets are the paper's acknowledged scaling limit and are
	// exercised separately.)
	spec := defaultSpec(2, 8)
	spec.payloads[1] = append([]byte(nil), spec.payloads[0]...)
	sig := synthesize(t, spec)
	d := MustNew(DefaultConfig(spec.params))
	res, err := d.Decode(context.Background(), sig, len(spec.payloads[0]))
	if err != nil {
		t.Fatal(err)
	}
	matchPayloads(t, res, spec.payloads)
}

func TestDecodeFourUserCollision(t *testing.T) {
	spec := defaultSpec(4, 11)
	sig := synthesize(t, spec)
	d := MustNew(DefaultConfig(spec.params))
	res, err := d.Decode(context.Background(), sig, len(spec.payloads[0]))
	if err != nil {
		t.Fatal(err)
	}
	matchPayloads(t, res, spec.payloads)
}

func TestDecodeNearFarCollision(t *testing.T) {
	// One user 25 dB stronger than the other: phased SIC plus the
	// interference-cancellation refinement must recover BOTH payloads.
	// (Imbalances beyond ~28 dB degrade gracefully — see
	// TestDecodeNearFarDetectionAt25dB for the detection-only guarantee.)
	for seed := uint64(1); seed <= 4; seed++ {
		spec := defaultSpec(2, seed)
		spec.gainsDBm = []float64{0, -25}
		spec.noiseDBm = -60
		sig := synthesize(t, spec)
		d := MustNew(DefaultConfig(spec.params))
		res, err := d.Decode(context.Background(), sig, len(spec.payloads[0]))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		matchPayloads(t, res, spec.payloads)
		// The strong user must be reported first.
		if len(res.Users) >= 2 && cmplxAbs(res.Users[0].Gain) < cmplxAbs(res.Users[1].Gain) {
			t.Errorf("seed %d: users not ordered strongest-first", seed)
		}
		// The weak user is found in a later SIC phase than the strong one,
		// and must not overwrite the strong user's preamble window offsets.
		for i, u := range res.Users {
			for w, o := range u.WindowOffsets[:spec.params.PreambleLen] {
				if dist := dsp.CircularBinDist(o, u.Offset, float64(spec.params.N())); dist > 0.5 {
					t.Errorf("seed %d user %d: preamble window %d offset %.3f is %.3f bins from the user's %.3f", seed, i, w, o, dist, u.Offset)
				}
			}
		}
	}
}

func TestDecodeNearFarDetectionAt25dB(t *testing.T) {
	// At a 25 dB imbalance payload recovery becomes probabilistic (the weak
	// user sits at the leakage floor of the strong one's reconstruction),
	// but phased SIC must still DETECT the weak user and pin its offset —
	// without SIC it is invisible.
	spec := defaultSpec(2, 3)
	spec.gainsDBm = []float64{0, -25}
	spec.noiseDBm = -60
	sig := synthesize(t, spec)
	d := MustNew(DefaultConfig(spec.params))
	res, err := d.Decode(context.Background(), sig, len(spec.payloads[0]))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Users) != 2 {
		t.Fatalf("detected %d users, want 2", len(res.Users))
	}
	gains := []float64{cmplxAbs(res.Users[0].Gain), cmplxAbs(res.Users[1].Gain)}
	ratioDB := 20 * math.Log10(gains[0]/gains[1])
	if math.Abs(ratioDB-25) > 4 {
		t.Errorf("estimated power imbalance %.1f dB, want ~25", ratioDB)
	}
	// The strong user must decode regardless.
	if !res.Users[0].Decoded() {
		t.Errorf("strong user failed to decode: %v", res.Users[0].Err)
	}
}

func TestDecodeWithoutSICMissesWeakUser(t *testing.T) {
	// Ablation: disabling phased SIC should lose the weak user in a strong
	// near-far collision — this is exactly why Sec. 5.2 exists.
	spec := defaultSpec(2, 3)
	spec.gainsDBm = []float64{0, -25}
	spec.noiseDBm = -60
	sig := synthesize(t, spec)
	cfg := DefaultConfig(spec.params)
	cfg.SICPhases = 0
	d := MustNew(cfg)
	res, err := d.Decode(context.Background(), sig, len(spec.payloads[0]))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.DecodedPayloads()); got >= 2 {
		t.Skip("weak user decodable even without SIC at this seed; near-far not severe enough")
	}
}

func TestDecodeOffsetEstimatesMatchGroundTruth(t *testing.T) {
	spec := defaultSpec(2, 5)
	spec.ppms = []float64{8, -6}
	spec.timings = []float64{3.4 / spec.params.Bandwidth, -7.8 / spec.params.Bandwidth}
	sig := synthesize(t, spec)
	d := MustNew(DefaultConfig(spec.params))
	res, err := d.Decode(context.Background(), sig, len(spec.payloads[0]))
	if err != nil {
		t.Fatal(err)
	}
	n := float64(spec.params.N())
	var wantOffsets []float64
	for i := range spec.ppms {
		cfoBins := spec.ppms[i] * 1e-6 * 902e6 / spec.params.Bandwidth * n
		// Chirp duality with this chirp convention: a LATE transmitter's
		// dechirped tone shifts DOWN by its delay in samples.
		toBins := -spec.timings[i] * spec.params.Bandwidth
		wantOffsets = append(wantOffsets, math.Mod(cfoBins+toBins+10*n, n))
	}
	for _, want := range wantOffsets {
		found := false
		for _, u := range res.Users {
			if dsp.CircularBinDist(u.Offset, want, n) < 0.1 {
				found = true
				break
			}
		}
		if !found {
			got := make([]float64, len(res.Users))
			for i, u := range res.Users {
				got[i] = u.Offset
			}
			t.Errorf("no user near expected offset %.3f bins (got %v)", want, got)
		}
	}
}

func TestDecodeShortSignal(t *testing.T) {
	d := MustNew(DefaultConfig(lora.DefaultParams()))
	if _, err := d.Decode(context.Background(), make([]complex128, 100), 8); !errors.Is(err, lora.ErrShortSignal) {
		t.Errorf("err = %v, want ErrShortSignal", err)
	}
}

func TestDecodeNoUsersInNoise(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	p := lora.DefaultParams()
	sig := make([]complex128, p.FrameSamples(8))
	for i := range sig {
		sig[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	d := MustNew(DefaultConfig(p))
	if _, err := d.Decode(context.Background(), sig, 8); !errors.Is(err, ErrNoUsers) {
		t.Errorf("err = %v, want ErrNoUsers", err)
	}
}

func TestNewValidation(t *testing.T) {
	p := lora.DefaultParams()
	bad := []Config{
		{LoRa: p, MaxUsers: 0, PeakThreshold: 5},
		{LoRa: p, MaxUsers: 4, PeakThreshold: 0.5},
		{LoRa: lora.Params{SF: 3}, MaxUsers: 4, PeakThreshold: 5},
		// Past the stated limit: a MaxUsers whose per-user scratch overflows
		// used to pass New and panic in the first Decode.
		{LoRa: p, MaxUsers: maxUsers + 1, PeakThreshold: 5},
		{LoRa: p, MaxUsers: 1 << 60, PeakThreshold: 5},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
	// The limit itself decodes.
	spec := defaultSpec(1, 3)
	sig := synthesize(t, spec)
	d, err := New(Config{LoRa: p, MaxUsers: maxUsers, PeakThreshold: 5})
	if err != nil {
		t.Fatalf("MaxUsers %d refused: %v", maxUsers, err)
	}
	if _, err := d.Decode(context.Background(), sig, len(spec.payloads[0])); err != nil {
		t.Errorf("MaxUsers %d: %v", maxUsers, err)
	}
}

func TestDecoderIsDeterministic(t *testing.T) {
	spec := defaultSpec(3, 33)
	sig := synthesize(t, spec)
	run := func() []string {
		d := MustNew(DefaultConfig(spec.params))
		res, err := d.Decode(context.Background(), sig, len(spec.payloads[0]))
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, u := range res.Users {
			out = append(out, string(u.Payload))
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic user count %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic payloads at %d", i)
		}
	}
}

func TestUserFracOffset(t *testing.T) {
	u := &User{Offset: 200.3}
	if f := u.FracOffset(); math.Abs(f-0.3) > 1e-9 {
		t.Errorf("FracOffset = %g", f)
	}
	u2 := &User{Offset: -0.25}
	if f := u2.FracOffset(); math.Abs(f-0.75) > 1e-9 {
		t.Errorf("FracOffset of negative = %g", f)
	}
}

func TestWindowOffsetsAreStable(t *testing.T) {
	// Fig. 7(c,d): the per-window offset estimates of a user must be stable
	// across the packet at reasonable SNR.
	spec := defaultSpec(2, 13)
	sig := synthesize(t, spec)
	d := MustNew(DefaultConfig(spec.params))
	res, err := d.Decode(context.Background(), sig, len(spec.payloads[0]))
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range res.Users {
		if !u.Decoded() {
			continue
		}
		if len(u.WindowOffsets) < spec.params.PreambleLen {
			t.Fatalf("user %d has %d window offsets", i, len(u.WindowOffsets))
		}
		// Use deviation around the final estimate, circularly.
		var devs []float64
		for _, w := range u.WindowOffsets {
			devs = append(devs, dsp.CircularBinDist(w, u.Offset, float64(spec.params.N())))
		}
		if rms := dsp.RMS(devs); rms > 0.15 {
			t.Errorf("user %d offset instability: RMS %.3f bins", i, rms)
		}
	}
}

func TestDecodeRobustToResolvableEcho(t *testing.T) {
	// At 125 kHz one sample of delay is 8 µs — 2.4 km of excess path — so
	// urban LoRa multipath is almost always SUB-sample and folds into the
	// flat complex channel gain the decoder already estimates. A
	// whole-sample-resolvable echo (a distant mountain/high-rise reflector)
	// is the harder case: its dechirped ray lands one bin away with a
	// DATA-DEPENDENT phase. A weak resolvable echo (-23 dB) must not break
	// collision decoding.
	spec := defaultSpec(2, 1)
	sig := synthesize(t, spec)
	echoed := channel.ApplyMultipath(sig, []channel.Tap{
		{DelaySamples: 1, Gain: complex(0.05, 0.05)},
	})
	d := MustNew(DefaultConfig(spec.params))
	res, err := d.Decode(context.Background(), echoed, len(spec.payloads[0]))
	if err != nil {
		t.Fatal(err)
	}
	matchPayloads(t, res, spec.payloads)
}

func TestDecodeUnderStrongResolvableEcho(t *testing.T) {
	// A strong resolvable echo (-9 dB, 8 µs) is beyond what the single-ray
	// user model tracks cleanly — each symbol's rays interfere with a
	// data-dependent phase — but the decoder must degrade gracefully:
	// detect the users and keep the packet count sane rather than
	// exploding into ghosts.
	spec := defaultSpec(2, 6)
	sig := synthesize(t, spec)
	echoed := channel.ApplyMultipath(sig, []channel.Tap{
		{DelaySamples: 1, Gain: complex(0.25, 0.25)},
	})
	d := MustNew(DefaultConfig(spec.params))
	res, err := d.Decode(context.Background(), echoed, len(spec.payloads[0]))
	if err != nil {
		t.Fatalf("decoder gave up entirely under multipath: %v", err)
	}
	// The two real users' offsets must be among the detected set.
	if len(res.Users) < 2 {
		t.Fatalf("detected %d users", len(res.Users))
	}
}

// TestSpreadingFactorQuasiOrthogonality pins Sec. 5.2 note 4, the reason a
// gateway may key its decoder pools on a frame's SF: a transmission at one
// SF dechirped with another SF's down-chirp spreads its energy instead of
// forming a peak.
func TestSpreadingFactorQuasiOrthogonality(t *testing.T) {
	p8 := lora.DefaultParams()
	m8 := lora.MustModem(p8)
	p9 := p8
	p9.SF = lora.SF9
	m9 := lora.MustModem(p9)

	// An SF9 frame observed through the SF8 receiver.
	sig := m9.Modulate([]byte{0xAA, 0x55})
	n8 := p8.N()
	dech := lora.Dechirp(nil, sig[:n8], m8.Down())
	spec := dsp.PaddedSpectrum(dech, 8)
	peakiness := 0.0
	floor := dsp.NoiseFloorScratch(spec, nil)
	for _, v := range spec {
		if v/floor > peakiness {
			peakiness = v / floor
		}
	}
	// A matched SF8 chirp would peak at ~n8/floor (hundreds). Cross-SF
	// energy must remain spread out.
	if peakiness > 20 {
		t.Errorf("cross-SF peakiness %.1f — SF9 signal concentrates under SF8 dechirp", peakiness)
	}
}
