package choir

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"choir/internal/channel"
	"choir/internal/lora"
	"choir/internal/radio"
)

// antennaCollision renders two users across nAnt antennas with the given
// per-antenna per-user gain matrix gains[ant][user].
func antennaCollision(t *testing.T, gains [][]float64, payloads [][]byte, seed uint64) [][]complex128 {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0xA7E))
	p := lora.DefaultParams()
	m := lora.MustModem(p)
	pop := radio.DefaultPopulation()

	type txsig struct {
		sig   []complex128
		whole int
	}
	sigs := make([]txsig, len(payloads))
	for i, pl := range payloads {
		tx := &radio.Transmitter{
			ID:           i,
			Osc:          radio.Oscillator{PPM: (rng.Float64()*2 - 1) * 15},
			TimingOffset: rng.NormFloat64() * 40e-6,
			Phase:        rng.Float64() * 2 * math.Pi,
		}
		s, w := tx.Transmit(m, pl, pop.CarrierHz)
		sigs[i] = txsig{s, w}
	}
	out := make([][]complex128, len(gains))
	length := p.FrameSamples(len(payloads[0])) + p.N()
	for a, row := range gains {
		var emissions []channel.Emission
		for u, g := range row {
			phase := rng.Float64() * 2 * math.Pi
			sA, cA := math.Sincos(phase)
			emissions = append(emissions, channel.Emission{
				Samples:     sigs[u].sig,
				StartSample: sigs[u].whole,
				Gain:        complex(g*cA, g*sA),
			})
		}
		out[a] = channel.Combine(length, emissions, channel.Config{NoiseFloorDBm: -42}, rng)
	}
	return out
}

func TestMultiAntennaSelectionDiversity(t *testing.T) {
	// User 0 is deeply faded on antenna 0 but strong on antenna 1; user 1
	// vice versa. Each single antenna decodes only one user; the combined
	// run recovers both.
	payloads := [][]byte{[]byte("fade-ant0"), []byte("fade-ant1")}
	gains := [][]float64{
		{0.005, 1.0}, // antenna 0: user0 buried ~13 dB below noise-ish
		{1.0, 0.005}, // antenna 1
	}
	antennas := antennaCollision(t, gains, payloads, 2)
	d := MustNew(DefaultConfig(lora.DefaultParams()))

	for a := range antennas {
		res, err := d.Decode(context.Background(), antennas[a], len(payloads[0]))
		if err != nil {
			t.Fatalf("antenna %d: %v", a, err)
		}
		if got := len(res.DecodedPayloads()); got >= 2 {
			t.Fatalf("antenna %d alone decoded %d users; fading not severe enough for the test", a, got)
		}
	}

	res, err := d.DecodeMultiAntenna(context.Background(), antennas, len(payloads[0]))
	if err != nil {
		t.Fatal(err)
	}
	decoded := res.DecodedPayloads()
	if len(decoded) != 2 {
		t.Fatalf("multi-antenna decoded %d users, want 2", len(decoded))
	}
	for _, want := range payloads {
		found := false
		for _, got := range decoded {
			if bytes.Equal(got, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("payload %q missing", want)
		}
	}
}

func TestMultiAntennaMergesDuplicates(t *testing.T) {
	// Both antennas see both users well: the merge must not duplicate them.
	payloads := [][]byte{[]byte("dupcheckA"), []byte("dupcheckB")}
	gains := [][]float64{{1, 1}, {1, 1}, {1, 1}}
	antennas := antennaCollision(t, gains, payloads, 4)
	d := MustNew(DefaultConfig(lora.DefaultParams()))
	res, err := d.DecodeMultiAntenna(context.Background(), antennas, len(payloads[0]))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Users) != 2 {
		t.Fatalf("merged to %d users, want 2", len(res.Users))
	}
	// Strongest-first ordering preserved.
	if cmplxAbs(res.Users[0].Gain) < cmplxAbs(res.Users[1].Gain) {
		t.Error("users not sorted by gain")
	}
}

func TestMultiAntennaErrors(t *testing.T) {
	d := MustNew(DefaultConfig(lora.DefaultParams()))
	if _, err := d.DecodeMultiAntenna(context.Background(), nil, 8); err == nil {
		t.Error("no antennas accepted")
	}
	// All-noise streams: ErrNoUsers.
	rng := rand.New(rand.NewPCG(1, 1))
	p := lora.DefaultParams()
	mk := func() []complex128 {
		s := make([]complex128, p.FrameSamples(8))
		for i := range s {
			s[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * 0.01
		}
		return s
	}
	if _, err := d.DecodeMultiAntenna(context.Background(), [][]complex128{mk(), mk()}, 8); !errors.Is(err, ErrNoUsers) {
		t.Errorf("err = %v, want ErrNoUsers", err)
	}
	// Short stream surfaces the underlying error.
	if _, err := d.DecodeMultiAntenna(context.Background(), [][]complex128{make([]complex128, 5)}, 8); err == nil {
		t.Error("short stream accepted")
	}
}

func TestAntennaDiversityGain(t *testing.T) {
	if g := AntennaDiversityGain(0.5, 1); g != 0.5 {
		t.Errorf("1 antenna: %g", g)
	}
	if g := AntennaDiversityGain(0.5, 2); math.Abs(g-0.75) > 1e-12 {
		t.Errorf("2 antennas: %g", g)
	}
	if g := AntennaDiversityGain(1, 3); g != 1 {
		t.Errorf("p=1: %g", g)
	}
	for _, bad := range []struct {
		p float64
		a int
	}{{-0.1, 1}, {1.1, 1}, {0.5, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AntennaDiversityGain(%g,%d) did not panic", bad.p, bad.a)
				}
			}()
			AntennaDiversityGain(bad.p, bad.a)
		}()
	}
}
