package lora

import (
	"bytes"
	"errors"
	"math"
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

// FuzzDecodeSymbolsGarbage asserts that arbitrary symbol streams at any
// requested payload length never panic, and that a length outside
// [0, MaxPayloadLen] fails with ErrPayloadLen.
func FuzzDecodeSymbolsGarbage(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 1)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, -1)
	f.Add([]byte{9}, math.MaxInt)
	f.Fuzz(func(t *testing.T, raw []byte, plen int) {
		p := DefaultParams()
		syms := make([]int, len(raw))
		for i := range syms {
			syms[i] = int(raw[i]) % p.N()
		}
		_, _, err := DecodeSymbols(syms, plen, p)
		if CheckPayloadLen(plen) != nil && !errors.Is(err, ErrPayloadLen) {
			t.Fatalf("payload length %d: err = %v, want ErrPayloadLen", plen, err)
		}
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
