package lora

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestWhitenIsInvolution(t *testing.T) {
	check := func(data []byte) bool {
		orig := append([]byte(nil), data...)
		Whiten(data)
		Whiten(data)
		return bytes.Equal(data, orig)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWhitenActuallyChangesData(t *testing.T) {
	data := make([]byte, 32) // all zeros
	Whiten(data)
	allZero := true
	for _, b := range data {
		if b != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		t.Fatal("whitening left all-zero data unchanged")
	}
}

func TestWhitenIsDeterministic(t *testing.T) {
	a := make([]byte, 16)
	b := make([]byte, 16)
	Whiten(a)
	Whiten(b)
	if !bytes.Equal(a, b) {
		t.Fatal("whitening sequence differs between calls")
	}
}

func TestGrayRoundTrip(t *testing.T) {
	for v := 0; v < 4096; v++ {
		if got := GrayDecode(GrayEncode(v)); got != v {
			t.Fatalf("GrayDecode(GrayEncode(%d)) = %d", v, got)
		}
	}
}

func TestGrayAdjacentValuesDifferInOneBit(t *testing.T) {
	for v := 0; v < 1023; v++ {
		a, b := GrayEncode(v), GrayEncode(v+1)
		diff := a ^ b
		if diff == 0 || diff&(diff-1) != 0 {
			t.Fatalf("Gray codes of %d and %d differ in %b (not one bit)", v, v+1, diff)
		}
	}
}

func TestHammingRoundTripAllNibbles(t *testing.T) {
	for _, cr := range []CodeRate{CR45, CR46, CR47, CR48} {
		for nib := byte(0); nib < 16; nib++ {
			cw := hammingEncodeNibble(nib, cr)
			got, ok := hammingDecodeNibble(cw, cr)
			if !ok {
				t.Errorf("cr=%v nib=%x: clean codeword flagged bad", cr, nib)
			}
			if got != nib {
				t.Errorf("cr=%v nib=%x: decoded %x", cr, nib, got)
			}
		}
	}
}

func TestHamming48CorrectsSingleBitErrors(t *testing.T) {
	for nib := byte(0); nib < 16; nib++ {
		cw := hammingEncodeNibble(nib, CR48)
		for bit := 0; bit < 8; bit++ {
			corrupted := cw ^ 1<<bit
			got, _ := hammingDecodeNibble(corrupted, CR48)
			if got != nib {
				t.Errorf("nib=%x bit=%d: decoded %x after single-bit flip", nib, bit, got)
			}
		}
	}
}

func TestHamming47CorrectsSingleBitErrors(t *testing.T) {
	for nib := byte(0); nib < 16; nib++ {
		cw := hammingEncodeNibble(nib, CR47)
		for bit := 0; bit < 7; bit++ {
			corrupted := cw ^ 1<<bit
			got, _ := hammingDecodeNibble(corrupted, CR47)
			if got != nib {
				t.Errorf("nib=%x bit=%d: decoded %x after single-bit flip", nib, bit, got)
			}
		}
	}
}

func TestHamming45DetectsSingleBitErrors(t *testing.T) {
	for nib := byte(0); nib < 16; nib++ {
		cw := hammingEncodeNibble(nib, CR45)
		for bit := 0; bit < 5; bit++ {
			// Flipping a data bit changes the nibble; flipping any bit must
			// at least be flagged inconsistent.
			_, ok := hammingDecodeNibble(cw^1<<bit, CR45)
			if ok {
				t.Errorf("nib=%x bit=%d: single-bit error not detected at 4/5", nib, bit)
			}
		}
	}
}

func TestHamming48DetectsDoubleBitErrors(t *testing.T) {
	for nib := byte(0); nib < 16; nib++ {
		cw := hammingEncodeNibble(nib, CR48)
		for b1 := 0; b1 < 8; b1++ {
			for b2 := b1 + 1; b2 < 8; b2++ {
				_, ok := hammingDecodeNibble(cw^1<<b1^1<<b2, CR48)
				if ok {
					t.Errorf("nib=%x bits=%d,%d: double error not detected", nib, b1, b2)
				}
			}
		}
	}
}

func TestEncodeDecodeBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for _, sf := range []SpreadingFactor{SF7, SF8, SF10, SF12} {
		for _, cr := range []CodeRate{CR45, CR48} {
			nibbles := make([]byte, int(sf))
			for i := range nibbles {
				nibbles[i] = byte(rng.IntN(16))
			}
			syms := EncodeBlock(nibbles, sf, cr)
			if len(syms) != cr.CodewordBits() {
				t.Fatalf("sf=%v cr=%v: %d symbols, want %d", sf, cr, len(syms), cr.CodewordBits())
			}
			for _, s := range syms {
				if s < 0 || s >= sf.SymbolSize() {
					t.Fatalf("symbol %d out of range for %v", s, sf)
				}
			}
			got, bad := decodeBlock(nil, make([]uint16, sf), syms, cr)
			if bad != 0 {
				t.Errorf("sf=%v cr=%v: %d bad codewords on clean block", sf, cr, bad)
			}
			if !bytes.Equal(got, nibbles) {
				t.Errorf("sf=%v cr=%v: roundtrip %x != %x", sf, cr, got, nibbles)
			}
		}
	}
}

func TestBlockSurvivesOneSymbolOffByOne(t *testing.T) {
	// A ±1 symbol error flips exactly one bit of one column thanks to Gray
	// mapping, which the diagonal interleaver spreads across codewords so
	// that Hamming 4/8 corrects it.
	rng := rand.New(rand.NewPCG(2, 2))
	const sf, cr = SF8, CR48
	for trial := 0; trial < 50; trial++ {
		nibbles := make([]byte, int(sf))
		for i := range nibbles {
			nibbles[i] = byte(rng.IntN(16))
		}
		syms := EncodeBlock(nibbles, sf, cr)
		idx := rng.IntN(len(syms))
		delta := 1
		if rng.IntN(2) == 0 {
			delta = -1
		}
		syms[idx] = (syms[idx] + delta + sf.SymbolSize()) % sf.SymbolSize()
		got, _ := decodeBlock(nil, make([]uint16, sf), syms, cr)
		if !bytes.Equal(got, nibbles) {
			t.Fatalf("trial %d: off-by-one symbol error not corrected (%x != %x)", trial, got, nibbles)
		}
	}
}

func TestDecodeBlockPanicsOnWrongLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("decodeBlock with wrong length did not panic")
		}
	}()
	decodeBlock(nil, make([]uint16, SF7), make([]int, 3), CR48)
}

func TestEncodeBlockPanicsOnTooManyNibbles(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EncodeBlock with too many nibbles did not panic")
		}
	}()
	EncodeBlock(make([]byte, 8), SF7, CR45)
}

func TestCRC16KnownVectors(t *testing.T) {
	// Standard CRC-16/CCITT-FALSE check value.
	if got := CRC16([]byte("123456789")); got != 0x29B1 {
		t.Errorf("CRC16(123456789) = %#04x, want 0x29B1", got)
	}
	if got := CRC16(nil); got != 0xFFFF {
		t.Errorf("CRC16(empty) = %#04x, want 0xFFFF", got)
	}
}

func TestCRC16DetectsCorruption(t *testing.T) {
	check := func(data []byte, idx int, flip byte) bool {
		if len(data) == 0 || flip == 0 {
			return true
		}
		idx = ((idx % len(data)) + len(data)) % len(data)
		orig := CRC16(data)
		data[idx] ^= flip
		changed := CRC16(data)
		data[idx] ^= flip
		return orig != changed
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSymbolsPerPayload(t *testing.T) {
	// 10-byte payload + 2 CRC = 24 nibbles; SF8 rows → 3 blocks; CR48 → 8
	// symbols per block.
	if got := SymbolsPerPayload(10, SF8, CR48); got != 24 {
		t.Errorf("SymbolsPerPayload(10, SF8, CR48) = %d, want 24", got)
	}
	// 1-byte payload + 2 CRC = 6 nibbles; SF7 rows → 1 block; CR45 → 5 syms.
	if got := SymbolsPerPayload(1, SF7, CR45); got != 5 {
		t.Errorf("SymbolsPerPayload(1, SF7, CR45) = %d, want 5", got)
	}
}
