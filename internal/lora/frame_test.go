package lora

import (
	"bytes"
	"errors"
	"math"
	"math/cmplx"
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
		if len(payload) > 48 {
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

// TestDecodeSymbolsIntoMatches pins DecodeSymbolsInto on a reused scratch
// and payload buffer against DecodeSymbols' fresh ones on round trips,
// corrupted streams and garbage across SF/CR combinations, payload length 0
// included: bytes, nil-ness, badCodewords and error must all agree.
func TestDecodeSymbolsIntoMatches(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 0x4444))
	var s CodecScratch
	var dst []byte
	for _, sf := range []SpreadingFactor{SF7, SF9, SF12} {
		for _, cr := range []CodeRate{CR45, CR48} {
			p := Params{SF: sf, CR: cr, Bandwidth: 125e3, PreambleLen: 8, SFDLen: 2}
			for trial := 0; trial < 30; trial++ {
				plen := 1 + rng.IntN(24)
				if trial < 3 {
					plen = 0 // clean, corrupted and garbage empty frames
				}
				payload := make([]byte, plen)
				for i := range payload {
					payload[i] = byte(rng.IntN(256))
				}
				syms := EncodeSymbols(payload, p)
				if trial%3 == 1 && len(syms) > 0 {
					syms[rng.IntN(len(syms))] ^= 1 << rng.IntN(int(sf))
				}
				if trial%3 == 2 {
					for i := range syms {
						syms[i] = rng.IntN(1 << sf)
					}
				}
				want, wantBad, wantErr := DecodeSymbols(syms, len(payload), p)
				got, gotBad, gotErr := DecodeSymbolsInto(&s, dst, syms, len(payload), p)
				dst = got[:0]
				if !errors.Is(gotErr, wantErr) && !(gotErr == nil && wantErr == nil) {
					t.Fatalf("sf=%d cr=%d len=%d: err %v, want %v", sf, cr, plen, gotErr, wantErr)
				}
				if gotBad != wantBad {
					t.Fatalf("sf=%d cr=%d len=%d: badCodewords %d, want %d", sf, cr, plen, gotBad, wantBad)
				}
				if (got == nil) != (want == nil) || !bytes.Equal(got, want) {
					t.Fatalf("sf=%d cr=%d len=%d: payload %#v, want %#v", sf, cr, plen, got, want)
				}
			}
		}
	}
}

// TestDecodeSymbolsZeroLengthFrame: a frame may carry 0 payload bytes (its
// data symbols hold only the CRC), and a clean one decodes to an empty,
// non-nil payload with no error, whether or not the caller brings a buffer.
func TestDecodeSymbolsZeroLengthFrame(t *testing.T) {
	p := DefaultParams()
	syms := EncodeSymbols(nil, p)
	var s CodecScratch
	for _, dst := range [][]byte{nil, {}, make([]byte, 4)} {
		got, bad, err := DecodeSymbolsInto(&s, dst, syms, 0, p)
		if err != nil || bad != 0 || got == nil || len(got) != 0 {
			t.Errorf("dst %#v: payload %#v, bad %d, err %v; want non-nil empty, 0, nil", dst, got, bad, err)
		}
	}
	if got, _, err := DecodeSymbols(syms, 0, p); err != nil || got == nil || len(got) != 0 {
		t.Errorf("DecodeSymbols: payload %#v, err %v; want non-nil empty, nil", got, err)
	}
}

func TestDecodeSymbolsIntoShortStream(t *testing.T) {
	p := DefaultParams()
	syms := EncodeSymbols([]byte("hello"), p)
	var s CodecScratch
	if _, _, err := DecodeSymbolsInto(&s, nil, syms[:len(syms)-1], 5, p); !errors.Is(err, ErrShortSignal) {
		t.Fatalf("err = %v, want ErrShortSignal", err)
	}
}

func TestDecodeSymbolsIntoZeroAlloc(t *testing.T) {
	p := DefaultParams()
	payload := []byte("steady-state")
	syms := EncodeSymbols(payload, p)
	var s CodecScratch
	dst := make([]byte, len(payload))
	if _, _, err := DecodeSymbolsInto(&s, dst, syms, len(payload), p); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := DecodeSymbolsInto(&s, dst, syms, len(payload), p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeSymbolsInto allocates %.1f/op after warm-up, want 0", allocs)
	}
}

// frameGrid is every PHY the frame-rendering tests sweep: SF7-12 with and
// without SFD down-chirps.
func frameGrid() []Params {
	var ps []Params
	for sf := SF7; sf <= SF12; sf++ {
		for _, sfd := range []int{0, 2} {
			p := DefaultParams()
			p.SF, p.SFDLen = sf, sfd
			ps = append(ps, p)
		}
	}
	return ps
}

// TestModulateMatchesExplicitLayout pins Modulate, which renders
// FrameSymbols, bit for bit against the frame written out by hand:
// preamble up-chirps, the two sync symbols, SFD down-chirps and the data
// symbols, each symbol by ModulateSymbol.
func TestModulateMatchesExplicitLayout(t *testing.T) {
	for _, p := range frameGrid() {
		m := MustModem(p)
		for _, payload := range [][]byte{nil, []byte("frame-layout")} {
			var want []complex128
			for i := 0; i < p.PreambleLen; i++ {
				want = append(want, m.up...)
			}
			sync := p.SyncSymbols()
			want = append(want, ModulateSymbol(m.up, sync[0])...)
			want = append(want, ModulateSymbol(m.up, sync[1])...)
			for i := 0; i < p.SFDLen; i++ {
				want = append(want, m.down...)
			}
			for _, s := range EncodeSymbols(payload, p) {
				want = append(want, ModulateSymbol(m.up, s)...)
			}
			got := m.Modulate(payload)
			if len(got) != len(want) {
				t.Fatalf("SF%d SFD %d len %d: %d samples, want %d", p.SF, p.SFDLen, len(payload), len(got), len(want))
			}
			for i := range got {
				if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
					math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
					t.Fatalf("SF%d SFD %d len %d: sample %d = %v, want %v", p.SF, p.SFDLen, len(payload), i, got[i], want[i])
				}
			}
		}
	}
}

// TestShiftedFrameMatchesModulate ties the capture synthesizer's renderer to
// Modulate: at zero shift, ModulateFrameShifted over FrameSymbols is the
// same frame up to rounding. The two evaluate each sample's phase in a
// different order, so only about a third of the samples are bit-equal; the
// error grows with the symbol size n (~5.7e-14 at SF7, ~1.8e-12 at SF12)
// and must stay within 1e-15·n.
func TestShiftedFrameMatchesModulate(t *testing.T) {
	for _, p := range frameGrid() {
		m := MustModem(p)
		payload := []byte("shifted")
		want := m.Modulate(payload)
		got := ModulateFrameShifted(m.Up(), m.FrameSymbols(payload), 0)
		if len(got) != len(want) {
			t.Fatalf("SF%d SFD %d: %d samples, want %d", p.SF, p.SFDLen, len(got), len(want))
		}
		tol := 1e-15 * float64(p.N())
		worst := 0.0
		for i := range got {
			worst = max(worst, cmplx.Abs(got[i]-want[i]))
		}
		if worst > tol {
			t.Errorf("SF%d SFD %d: max |diff| %.2g, want <= %.2g", p.SF, p.SFDLen, worst, tol)
		}
		t.Logf("SF%d SFD %d: max |diff| %.2g", p.SF, p.SFDLen, worst)
	}
}
