package lora

import (
	"bytes"
	"testing"
)

// FuzzCodingRoundTrip asserts the full coding chain is the identity for any
// payload and never panics.
func FuzzCodingRoundTrip(f *testing.F) {
	f.Add([]byte("seed"), uint8(8), uint8(4))
	f.Add([]byte{0}, uint8(7), uint8(1))
	f.Add(bytes.Repeat([]byte{0xFF}, 64), uint8(12), uint8(2))
	f.Fuzz(func(t *testing.T, payload []byte, sfRaw, crRaw uint8) {
		if len(payload) == 0 || len(payload) > 128 {
			return
		}
		p := DefaultParams()
		p.SF = SpreadingFactor(7 + int(sfRaw)%6)
		p.CR = CodeRate(1 + int(crRaw)%4)
		syms := EncodeSymbols(payload, p)
		got, bad, err := DecodeSymbols(syms, len(payload), p)
		if err != nil {
			t.Fatalf("clean stream failed: %v", err)
		}
		if bad != 0 {
			t.Fatalf("clean stream reported %d bad codewords", bad)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("roundtrip mismatch")
		}
	})
}

// FuzzFrameCodecRoundTrip exercises the payload codec — Hamming blocks,
// interleaving, whitening, CRC-16 — as the identity at symbol level for
// every SF × CR combination.
func FuzzFrameCodecRoundTrip(f *testing.F) {
	f.Add([]byte("frame"), uint8(8), uint8(4))
	f.Add([]byte{0xAA}, uint8(12), uint8(1))
	f.Add(bytes.Repeat([]byte{0x5A}, 48), uint8(7), uint8(3))
	f.Fuzz(func(t *testing.T, payload []byte, sfRaw, crRaw uint8) {
		if len(payload) == 0 || len(payload) > 128 {
			return
		}
		p := DefaultParams()
		p.SF = SpreadingFactor(7 + int(sfRaw)%6)
		p.CR = CodeRate(1 + int(crRaw)%4)

		got, bad, err := DecodeSymbols(EncodeSymbols(payload, p), len(payload), p)
		if err != nil {
			t.Fatalf("payload decode: %v", err)
		}
		if bad != 0 {
			t.Fatalf("clean frame reported %d bad codewords", bad)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("frame codec roundtrip mismatch")
		}
	})
}

// FuzzDecodeSymbolsGarbage asserts that arbitrary symbol streams never
// panic and essentially never pass the CRC.
func FuzzDecodeSymbolsGarbage(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, plenRaw uint8) {
		p := DefaultParams()
		plen := 1 + int(plenRaw)%32
		need := SymbolsPerPayload(plen, p.SF, p.CR)
		if len(raw) < need {
			return
		}
		syms := make([]int, need)
		for i := range syms {
			syms[i] = int(raw[i]) % p.N()
		}
		// Must not panic; errors are expected.
		_, _, _ = DecodeSymbols(syms, plen, p)
	})
}

// FuzzWhitenInvolution asserts Whiten∘Whiten == id for arbitrary data.
func FuzzWhitenInvolution(f *testing.F) {
	f.Add([]byte("involution"))
	f.Fuzz(func(t *testing.T, data []byte) {
		orig := append([]byte(nil), data...)
		Whiten(data)
		Whiten(data)
		if !bytes.Equal(data, orig) {
			t.Fatal("whitening not an involution")
		}
	})
}
