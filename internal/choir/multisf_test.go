package choir

import (
	"bytes"
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"choir/internal/channel"
	"choir/internal/dsp"
	"choir/internal/lora"
	"choir/internal/radio"
)

// TestSpreadingFactorQuasiOrthogonality verifies the premise of Sec. 5.2
// note 4: a transmission at one SF dechirped with another SF's down-chirp
// spreads its energy instead of forming a peak.
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
	floor := dsp.NoiseFloor(spec)
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

// multiSFCollision renders one transmitter per provided SF on a shared
// timeline plus noise.
func multiSFCollision(t *testing.T, payloads map[lora.SpreadingFactor][]byte, seed uint64) []complex128 {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0x515F))
	pop := radio.DefaultPopulation()
	var emissions []channel.Emission
	maxLen := 0
	id := 0
	for sf := lora.SF7; sf <= lora.SF12; sf++ {
		payload, ok := payloads[sf]
		if !ok {
			continue
		}
		p := lora.DefaultParams()
		p.SF = sf
		m := lora.MustModem(p)
		tx := &radio.Transmitter{
			ID:           id,
			Osc:          radio.Oscillator{PPM: (rng.Float64()*2 - 1) * 15},
			TimingOffset: rng.NormFloat64() * 40e-6,
			Phase:        rng.Float64() * 2 * math.Pi,
		}
		id++
		sig, whole := tx.Transmit(m, payload, pop.CarrierHz)
		emissions = append(emissions, channel.Emission{Samples: sig, StartSample: whole, Gain: 1})
		if l := whole + len(sig); l > maxLen {
			maxLen = l
		}
	}
	return channel.Combine(maxLen+64, emissions, channel.Config{NoiseFloorDBm: -45}, rng)
}

func TestMultiSFDecodesParallelCollision(t *testing.T) {
	payloads := map[lora.SpreadingFactor][]byte{
		lora.SF7: []byte("sf7-data"),
		lora.SF8: []byte("sf8-data"),
		lora.SF9: []byte("sf9-data"),
	}
	sig := multiSFCollision(t, payloads, 1)

	base := DefaultConfig(lora.DefaultParams())
	m, err := NewMultiSF(base, []lora.SpreadingFactor{lora.SF7, lora.SF8, lora.SF9})
	if err != nil {
		t.Fatal(err)
	}
	lens := map[lora.SpreadingFactor]int{lora.SF7: 8, lora.SF8: 8, lora.SF9: 8}
	results := m.Decode(context.Background(), sig, lens)
	if len(results) != 3 {
		t.Fatalf("%d SF results", len(results))
	}
	for _, sr := range results {
		if sr.Err != nil {
			t.Fatalf("%v: %v", sr.SF, sr.Err)
		}
		if sr.Result == nil {
			t.Fatalf("%v: nothing decoded", sr.SF)
		}
		want := payloads[sr.SF]
		found := false
		for _, got := range sr.Result.DecodedPayloads() {
			if bytes.Equal(got, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%v: payload %q not recovered", sr.SF, want)
		}
	}
}

func TestMultiSFWithIntraSFCollision(t *testing.T) {
	// Two users at SF8 colliding, plus one at SF9: Choir must disentangle
	// the SF8 pair while the SF9 user decodes through orthogonality. The
	// SF9 interferer sits 6 dB below the SF8 pair — cross-SF chirps are
	// only QUASI-orthogonal, so an equal-power interferer raises the
	// intra-SF noise floor enough to cost occasional packets (the residual
	// cross-technology interference the paper's Sec. 5.2 note 5 concedes).
	rng := rand.New(rand.NewPCG(3, 3))
	pop := radio.DefaultPopulation()
	var emissions []channel.Emission
	maxLen := 0

	p8 := lora.DefaultParams()
	m8 := lora.MustModem(p8)
	sf8Payloads := [][]byte{[]byte("userA-08"), []byte("userB-08")}
	for i, pl := range sf8Payloads {
		tx := &radio.Transmitter{ID: i, Osc: radio.Oscillator{PPM: (rng.Float64()*2 - 1) * 15},
			TimingOffset: rng.NormFloat64() * 40e-6, Phase: rng.Float64() * 2 * math.Pi}
		sig, whole := tx.Transmit(m8, pl, pop.CarrierHz)
		emissions = append(emissions, channel.Emission{Samples: sig, StartSample: whole, Gain: 1})
		if l := whole + len(sig); l > maxLen {
			maxLen = l
		}
	}
	p9 := p8
	p9.SF = lora.SF9
	m9 := lora.MustModem(p9)
	sf9Payload := []byte("userC-09")
	tx := &radio.Transmitter{ID: 2, Osc: radio.Oscillator{PPM: 5}, TimingOffset: 20e-6, Phase: 1}
	sig, whole := tx.Transmit(m9, sf9Payload, pop.CarrierHz)
	emissions = append(emissions, channel.Emission{Samples: sig, StartSample: whole, Gain: 0.5})
	if l := whole + len(sig); l > maxLen {
		maxLen = l
	}
	mixed := channel.Combine(maxLen+64, emissions, channel.Config{NoiseFloorDBm: -45}, rng)

	m, err := NewMultiSF(DefaultConfig(p8), []lora.SpreadingFactor{lora.SF8, lora.SF9})
	if err != nil {
		t.Fatal(err)
	}
	results := m.Decode(context.Background(), mixed, map[lora.SpreadingFactor]int{lora.SF8: 8, lora.SF9: 8})

	bysf := map[lora.SpreadingFactor]*Result{}
	for _, sr := range results {
		bysf[sr.SF] = sr.Result
	}
	if bysf[lora.SF8] == nil || len(bysf[lora.SF8].DecodedPayloads()) != 2 {
		t.Errorf("SF8 pair not disentangled: %+v", bysf[lora.SF8])
	}
	if bysf[lora.SF9] == nil {
		t.Fatal("SF9 user not decoded")
	}
	found := false
	for _, got := range bysf[lora.SF9].DecodedPayloads() {
		if bytes.Equal(got, sf9Payload) {
			found = true
		}
	}
	if !found {
		t.Errorf("SF9 payload not recovered")
	}
}

func TestNewMultiSFValidation(t *testing.T) {
	base := DefaultConfig(lora.DefaultParams())
	if _, err := NewMultiSF(base, nil); err == nil {
		t.Error("empty SF list accepted")
	}
	if _, err := NewMultiSF(base, []lora.SpreadingFactor{lora.SF8, lora.SF8}); err == nil {
		t.Error("duplicate SF accepted")
	}
	if _, err := NewMultiSF(base, []lora.SpreadingFactor{5}); err == nil {
		t.Error("invalid SF accepted")
	}
	m, err := NewMultiSF(base, []lora.SpreadingFactor{lora.SF7, lora.SF10})
	if err != nil {
		t.Fatal(err)
	}
	if m.Decoder(lora.SF7) == nil || m.Decoder(lora.SF10) == nil {
		t.Error("configured decoder missing")
	}
	if m.Decoder(lora.SF8) != nil {
		t.Error("unconfigured decoder present")
	}
}

func TestMultiSFSkipsUnrequestedLengths(t *testing.T) {
	sig := multiSFCollision(t, map[lora.SpreadingFactor][]byte{lora.SF8: []byte("only-sf8")}, 5)
	m, err := NewMultiSF(DefaultConfig(lora.DefaultParams()), []lora.SpreadingFactor{lora.SF7, lora.SF8})
	if err != nil {
		t.Fatal(err)
	}
	results := m.Decode(context.Background(), sig, map[lora.SpreadingFactor]int{lora.SF8: 8})
	if len(results) != 1 || results[0].SF != lora.SF8 {
		t.Fatalf("results = %+v", results)
	}
}
