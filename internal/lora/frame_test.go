package lora

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"choir/internal/dsp"
)

func TestEncodeDecodeSymbolsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, sf := range []SpreadingFactor{SF7, SF8, SF9} {
		for _, cr := range []CodeRate{CR45, CR48} {
			p := Params{SF: sf, Bandwidth: 125e3, CR: cr, PreambleLen: 8, SyncWord: 0x34}
			for _, plen := range []int{1, 4, 17, 64} {
				payload := make([]byte, plen)
				for i := range payload {
					payload[i] = byte(rng.IntN(256))
				}
				syms := EncodeSymbols(payload, p)
				got, bad, err := DecodeSymbols(syms, plen, p)
				if err != nil {
					t.Fatalf("sf=%v cr=%v len=%d: %v", sf, cr, plen, err)
				}
				if bad != 0 {
					t.Errorf("sf=%v cr=%v len=%d: %d bad codewords on clean stream", sf, cr, plen, bad)
				}
				if !bytes.Equal(got, payload) {
					t.Fatalf("sf=%v cr=%v len=%d: payload mismatch", sf, cr, plen)
				}
			}
		}
	}
}

func TestDecodeSymbolsShortStream(t *testing.T) {
	p := DefaultParams()
	syms := EncodeSymbols([]byte("hello"), p)
	if _, _, err := DecodeSymbols(syms[:len(syms)-1], 5, p); !errors.Is(err, ErrShortSignal) {
		t.Errorf("err = %v, want ErrShortSignal", err)
	}
}

func TestDecodeSymbolsCRCFailureOnCorruption(t *testing.T) {
	p := DefaultParams()
	payload := []byte("sensor-reading-42")
	syms := EncodeSymbols(payload, p)
	// Corrupt enough symbols to exceed FEC correction (large jumps).
	n := p.N()
	for i := 0; i < 4; i++ {
		syms[i] = (syms[i] + n/2) % n
	}
	_, _, err := DecodeSymbols(syms, len(payload), p)
	if !errors.Is(err, ErrCRC) {
		t.Errorf("err = %v, want ErrCRC", err)
	}
}

func TestModulateDemodulateFrame(t *testing.T) {
	m := MustModem(DefaultParams())
	payload := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x23}
	sig := m.Modulate(payload)
	wantLen := m.Params.FrameSamples(len(payload))
	if len(sig) != wantLen {
		t.Fatalf("frame is %d samples, want %d", len(sig), wantLen)
	}
	got, err := m.Demodulate(sig, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload %x, want %x", got, payload)
	}
}

func TestDemodulateFrameWithNoise(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	m := MustModem(DefaultParams())
	payload := []byte("temperature=23.5C")
	sig := m.Modulate(payload)
	// SNR around 3 dB per sample: chirp processing gain (2^SF=256, ~24 dB)
	// makes this comfortably decodable.
	for i := range sig {
		sig[i] += complex(rng.NormFloat64(), rng.NormFloat64()) * 0.5
	}
	got, err := m.Demodulate(sig, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload %q, want %q", got, payload)
	}
}

func TestDemodulateRejectsWrongSyncWord(t *testing.T) {
	p := DefaultParams()
	m := MustModem(p)
	other := p
	other.SyncWord = 0x12
	m2 := MustModem(other)
	sig := m2.Modulate([]byte("x"))
	if _, err := m.Demodulate(sig, 1); err == nil {
		t.Fatal("frame with wrong sync word decoded")
	}
}

func TestDemodulateShortSignal(t *testing.T) {
	m := MustModem(DefaultParams())
	if _, err := m.Demodulate(make([]complex128, 10), 5); !errors.Is(err, ErrShortSignal) {
		t.Errorf("err = %v, want ErrShortSignal", err)
	}
}

func TestAirTimeAndFrameSamplesConsistent(t *testing.T) {
	p := DefaultParams()
	if at := p.AirTime(10); at <= 0 {
		t.Errorf("AirTime = %g", at)
	}
	// AirTime * bandwidth == samples
	got := p.AirTime(10) * p.Bandwidth
	if int(got+0.5) != p.FrameSamples(10) {
		t.Errorf("AirTime*BW = %g, FrameSamples = %d", got, p.FrameSamples(10))
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	check := func(payload []byte) bool {
		if len(payload) == 0 || len(payload) > 48 {
			return true
		}
		m := MustModem(DefaultParams())
		sig := m.Modulate(payload)
		got, err := m.Demodulate(sig, len(payload))
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameSurvivesSmallCFO(t *testing.T) {
	// A CFO well under half a bin must not break standard demodulation.
	m := MustModem(DefaultParams())
	n := m.Params.N()
	payload := []byte("cfo-test")
	sig := m.Modulate(payload)
	shifted := dsp.FreqShift(sig, 0.2/float64(n))
	got, err := m.Demodulate(shifted, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted by sub-bin CFO")
	}
}
