package choir

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"choir/internal/channel"
	"choir/internal/lora"
	"choir/internal/radio"
)

func sfdParams() lora.Params {
	p := lora.DefaultParams()
	p.SFDLen = 2
	return p
}

// renderSFD builds a collision with SFD-bearing frames, returning the
// signal and per-user ground-truth (cfoBins, timingSamples).
func renderSFD(t *testing.T, ppms, timingSamples []float64, seed uint64) ([]complex128, [][2]float64) {
	t.Helper()
	p := sfdParams()
	m := lora.MustModem(p)
	rng := rand.New(rand.NewPCG(seed, 0x5FD))
	pop := radio.DefaultPopulation()
	var emissions []channel.Emission
	truth := make([][2]float64, len(ppms))
	maxLen := p.FrameSamples(8) + p.N()
	for i := range ppms {
		tx := &radio.Transmitter{
			ID:           i,
			Osc:          radio.Oscillator{PPM: ppms[i]},
			TimingOffset: timingSamples[i] / p.Bandwidth,
			Phase:        rng.Float64() * 2 * math.Pi,
		}
		payload := make([]byte, 8)
		for b := range payload {
			payload[b] = byte(rng.IntN(256))
		}
		sig, whole := tx.Transmit(m, payload, pop.CarrierHz)
		emissions = append(emissions, channel.Emission{Samples: sig, StartSample: whole, Gain: 1})
		if l := whole + len(sig); l > maxLen {
			maxLen = l
		}
		cfoBins := tx.Osc.CFO(pop.CarrierHz) / p.Bandwidth * float64(p.N())
		truth[i] = [2]float64{cfoBins, timingSamples[i]}
	}
	return channel.Combine(maxLen, emissions, channel.Config{NoiseFloorDBm: -45}, rng), truth
}

func TestSFDFrameStillDecodes(t *testing.T) {
	// The SFD must not break ordinary single-user demodulation or Choir
	// collision decoding.
	p := sfdParams()
	m := lora.MustModem(p)
	payload := []byte("sfd-okay")
	sig := m.Modulate(payload)
	if len(sig) != p.FrameSamples(len(payload)) {
		t.Fatalf("frame %d samples, want %d", len(sig), p.FrameSamples(len(payload)))
	}
	got, err := m.Demodulate(sig, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload %q", got)
	}

	sig2, _ := renderSFD(t, []float64{6, -9}, []float64{4.3, -11.7}, 2)
	d := MustNew(DefaultConfig(p))
	res, err := d.Decode(context.Background(), sig2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DecodedPayloads()) != 2 {
		t.Fatalf("decoded %d users under SFD framing", len(res.DecodedPayloads()))
	}
}

func TestSplitOffsetsSingleUser(t *testing.T) {
	cases := []struct{ ppm, dt float64 }{
		{10, 7.3},
		{-12, -15.6},
		{3, 0},
		{0, 9.25},
		{-14.5, 20.5},
	}
	for _, c := range cases {
		sig, truth := renderSFD(t, []float64{c.ppm}, []float64{c.dt}, 7)
		d := MustNew(DefaultConfig(sfdParams()))
		splits, err := d.SplitOffsets(sig, 35)
		if err != nil {
			t.Fatalf("ppm=%g dt=%g: %v", c.ppm, c.dt, err)
		}
		if len(splits) != 1 {
			t.Fatalf("ppm=%g dt=%g: %d splits", c.ppm, c.dt, len(splits))
		}
		s := splits[0]
		if math.Abs(s.CFOBins-truth[0][0]) > 0.15 {
			t.Errorf("ppm=%g dt=%g: CFO %.3f bins, want %.3f", c.ppm, c.dt, s.CFOBins, truth[0][0])
		}
		if math.Abs(s.TimingSamples-truth[0][1]) > 0.15 {
			t.Errorf("ppm=%g dt=%g: timing %.3f samples, want %.3f", c.ppm, c.dt, s.TimingSamples, truth[0][1])
		}
	}
}

func TestSplitOffsetsTwoUsers(t *testing.T) {
	ppms := []float64{9, -7}
	dts := []float64{12.4, -6.8}
	sig, truth := renderSFD(t, ppms, dts, 9)
	d := MustNew(DefaultConfig(sfdParams()))
	splits, err := d.SplitOffsets(sig, 35)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 2 {
		t.Fatalf("%d splits, want 2", len(splits))
	}
	for _, want := range truth {
		found := false
		for _, s := range splits {
			if math.Abs(s.CFOBins-want[0]) < 0.25 && math.Abs(s.TimingSamples-want[1]) < 0.25 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no split near cfo=%.2f dt=%.2f (got %+v)", want[0], want[1], splits)
		}
	}
}

func TestSplitOffsetsErrors(t *testing.T) {
	// No SFD configured.
	d := MustNew(DefaultConfig(lora.DefaultParams()))
	if _, err := d.SplitOffsets(make([]complex128, 10000), 35); !errors.Is(err, ErrNoSFD) {
		t.Errorf("err = %v, want ErrNoSFD", err)
	}
	// Short signal.
	d2 := MustNew(DefaultConfig(sfdParams()))
	if _, err := d2.SplitOffsets(make([]complex128, 100), 35); !errors.Is(err, lora.ErrShortSignal) {
		t.Errorf("err = %v, want ErrShortSignal", err)
	}
	// Pure noise.
	rng := rand.New(rand.NewPCG(1, 1))
	noise := make([]complex128, sfdParams().FrameSamples(8))
	for i := range noise {
		noise[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	if _, err := d2.SplitOffsets(noise, 35); !errors.Is(err, ErrNoUsers) {
		t.Errorf("err = %v, want ErrNoUsers", err)
	}
}

func TestSignedMod(t *testing.T) {
	cases := []struct{ v, period, want float64 }{
		{250, 256, -6},
		{-250, 256, 6},
		{128, 256, 128},
		{-128, 256, 128},
		{10, 256, 10},
	}
	for _, c := range cases {
		if got := signedMod(c.v, c.period); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("signedMod(%g, %g) = %g, want %g", c.v, c.period, got, c.want)
		}
	}
}

// TestSplitOffsetsRefusesBadIQ: the offset split applies the one capture
// rule, so a capture with non-finite samples fails as ErrBadIQ rather than
// as a capture with no users in it.
func TestSplitOffsetsRefusesBadIQ(t *testing.T) {
	sig, _ := renderSFD(t, []float64{3}, []float64{0.3}, 1)
	sig[5] = complex(math.NaN(), 0)
	d := MustNew(DefaultConfig(sfdParams()))
	if _, err := d.SplitOffsets(sig, 40); !errors.Is(err, ErrBadIQ) {
		t.Fatalf("SplitOffsets(NaN capture) err = %v, want ErrBadIQ", err)
	}
}
