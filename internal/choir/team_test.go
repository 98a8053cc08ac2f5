package choir

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"testing"

	"choir/internal/lora"
)

// teamSpec builds a collision of n co-located transmitters sending the SAME
// payload, each with its own hardware offsets, at perMemberDBm received
// power against the given noise floor.
func teamSpec(n int, perMemberDBm, noiseDBm float64, seed uint64) collisionSpec {
	p := lora.DefaultParams()
	rng := rand.New(rand.NewPCG(seed, 555))
	payload := make([]byte, 8)
	for i := range payload {
		payload[i] = byte(rng.IntN(256))
	}
	spec := collisionSpec{params: p, noiseDBm: noiseDBm, seed: seed}
	symbolT := float64(p.N()) / p.Bandwidth
	for i := 0; i < n; i++ {
		spec.payloads = append(spec.payloads, payload)
		spec.ppms = append(spec.ppms, (rng.Float64()*2-1)*15)
		spec.timings = append(spec.timings, rng.NormFloat64()*0.02*symbolT)
		spec.gainsDBm = append(spec.gainsDBm, perMemberDBm)
	}
	return spec
}

func TestDetectTeamAboveNoise(t *testing.T) {
	spec := teamSpec(3, 0, -40, 1)
	sig := synthesize(t, spec)
	d := MustNew(DefaultConfig(spec.params))
	offs, err := d.DetectTeam(sig)
	if err != nil {
		t.Fatal(err)
	}
	if len(offs) < 3 {
		t.Errorf("detected %d members, want >= 3", len(offs))
	}
}

func TestDetectTeamBelowSingleSymbolFloor(t *testing.T) {
	// Each member ~6 dB below the per-symbol detection point: coherent
	// accumulation over the preamble must still find them.
	spec := teamSpec(5, -40, -30, 2)
	sig := synthesize(t, spec)
	d := MustNew(DefaultConfig(spec.params))
	offs, err := d.DetectTeam(sig)
	if err != nil {
		t.Fatalf("team not detected: %v", err)
	}
	if len(offs) == 0 {
		t.Fatal("no members detected")
	}
	// The ordinary preamble estimator must NOT see these users (they are
	// below its single-window threshold) — that is the point of Sec. 7.2.
	if ests := d.estimatePreamble(sig); len(ests) > len(offs) {
		t.Errorf("single-window estimator found %d users vs accumulated %d", len(ests), len(offs))
	}
}

func TestDetectTeamRejectsPureNoise(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	p := lora.DefaultParams()
	sig := make([]complex128, p.FrameSamples(8))
	for i := range sig {
		sig[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	d := MustNew(DefaultConfig(p))
	if _, err := d.DetectTeam(sig); !errors.Is(err, ErrNotDetected) {
		t.Errorf("err = %v, want ErrNotDetected", err)
	}
}

func TestDetectTeamShortSignal(t *testing.T) {
	d := MustNew(DefaultConfig(lora.DefaultParams()))
	if _, err := d.DetectTeam(make([]complex128, 64)); !errors.Is(err, lora.ErrShortSignal) {
		t.Errorf("err = %v, want ErrShortSignal", err)
	}
}

func TestDecodeTeamAtModerateSNR(t *testing.T) {
	spec := teamSpec(4, -20, -40, 4)
	sig := synthesize(t, spec)
	d := MustNew(DefaultConfig(spec.params))
	res, err := d.DecodeTeam(context.Background(), sig, len(spec.payloads[0]))
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("payload decode failed: %v", res.Err)
	}
	if !bytes.Equal(res.Payload, spec.payloads[0]) {
		t.Fatalf("payload %x, want %x", res.Payload, spec.payloads[0])
	}
}

func TestDecodeTeamBelowNoiseFloor(t *testing.T) {
	// Per-member per-sample SNR of -12 dB: an individual transmission is
	// undecodable even with chirp gain at this preamble threshold, but a
	// 10-member team pools enough energy. This reproduces the range
	// extension mechanism of Sec. 7 / Fig. 9.
	spec := teamSpec(10, -32, -20, 5)
	sig := synthesize(t, spec)
	d := MustNew(DefaultConfig(spec.params))
	res, err := d.DecodeTeam(context.Background(), sig, len(spec.payloads[0]))
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("payload decode failed: %v (symbols %v)", res.Err, res.Symbols)
	}
	if !bytes.Equal(res.Payload, spec.payloads[0]) {
		t.Fatalf("payload %x, want %x", res.Payload, spec.payloads[0])
	}
}

func TestDecodeTeamLargerTeamsTolerateLowerSNR(t *testing.T) {
	// Crossover structure of Fig. 9: at a per-member SNR where a small team
	// fails, a larger team succeeds.
	perMember := -39.0
	noise := -20.0
	small, large := 0, 0
	const trials = 3
	for seed := uint64(10); seed < 10+trials; seed++ {
		specS := teamSpec(2, perMember, noise, seed)
		sigS := synthesize(t, specS)
		d := MustNew(DefaultConfig(specS.params))
		if res, err := d.DecodeTeam(context.Background(), sigS, 8); err == nil && res.Err == nil && bytes.Equal(res.Payload, specS.payloads[0]) {
			small++
		}
		specL := teamSpec(16, perMember, noise, seed)
		sigL := synthesize(t, specL)
		if res, err := d.DecodeTeam(context.Background(), sigL, 8); err == nil && res.Err == nil && bytes.Equal(res.Payload, specL.payloads[0]) {
			large++
		}
	}
	if large <= small {
		t.Errorf("large teams decoded %d/%d, small teams %d/%d — no team gain", large, trials, small, trials)
	}
}

func TestSubtractDecodedUsersUnmasksTeam(t *testing.T) {
	// Sec. 7.2 "Dealing with Collisions": a strong nearby user collides with
	// a weak team; subtracting the decoded strong user must leave the team
	// decodable.
	teamPart := teamSpec(8, -30, -45, 6)
	sigTeam := synthesize(t, teamPart)

	strong := defaultSpec(1, 7)
	strong.noiseDBm = -300 // noise already added by the team synthesis
	sigStrong := synthesize(t, strong)

	n := len(sigTeam)
	if len(sigStrong) < n {
		n = len(sigStrong)
	}
	mixed := make([]complex128, n)
	for i := range mixed {
		mixed[i] = sigTeam[i] + sigStrong[i]
	}

	d := MustNew(DefaultConfig(teamPart.params))
	res, err := d.Decode(context.Background(), mixed, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DecodedPayloads()) < 1 {
		t.Fatal("strong user not decoded from the mix")
	}
	cleaned := d.SubtractDecodedUsers(mixed, res, 8)
	teamRes, err := d.DecodeTeam(context.Background(), cleaned, 8)
	if err != nil {
		t.Fatalf("team not detected after subtraction: %v", err)
	}
	if teamRes.Err != nil {
		t.Fatalf("team payload failed: %v", teamRes.Err)
	}
	if !bytes.Equal(teamRes.Payload, teamPart.payloads[0]) {
		t.Fatalf("team payload %x, want %x", teamRes.Payload, teamPart.payloads[0])
	}
}

// TestSubtractDecodedUsersAllocatesOnlyItsOutput pins a warm
// SubtractDecodedUsers call to one allocation, the cleaned copy it returns:
// each window is dechirped into decoder scratch and both split orientations
// share the current symbol's prefix sums.
func TestSubtractDecodedUsersAllocatesOnlyItsOutput(t *testing.T) {
	spec := defaultSpec(1, 7)
	sig := synthesize(t, spec)
	d := MustNew(DefaultConfig(spec.params))
	res, err := d.Decode(context.Background(), sig, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DecodedPayloads()) != 1 {
		t.Fatalf("decoded %d users, want 1", len(res.DecodedPayloads()))
	}
	d.SubtractDecodedUsers(sig, res, 8)
	if allocs := testing.AllocsPerRun(5, func() { d.SubtractDecodedUsers(sig, res, 8) }); allocs != 1 {
		t.Fatalf("SubtractDecodedUsers allocates %v times a call, want 1", allocs)
	}
}
