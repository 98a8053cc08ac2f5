// Package lora implements a LoRa-style chirp-spread-spectrum physical layer
// from scratch: chirp modulation per spreading factor, the payload coding
// chain (whitening, Hamming FEC, diagonal interleaving, Gray mapping,
// CRC-16), framing with preamble and sync symbols, and a single-user
// demodulator. This is the substrate that the Choir decoder (package choir)
// operates on and also serves as the standard-LoRaWAN baseline receiver.
//
// Signals are baseband complex128 IQ sample slices, critically sampled at
// the channel bandwidth (one sample per 1/BW seconds), so a symbol at
// spreading factor SF spans exactly 2^SF samples.
package lora

import (
	"errors"
	"fmt"
)

// SpreadingFactor is the LoRa spreading factor: the number of raw bits
// conveyed per chirp symbol. Each SF uses a unique, mutually quasi-orthogonal
// chirp. Valid values are 7 through 12.
type SpreadingFactor int

// Valid LoRa spreading factors.
const (
	SF7  SpreadingFactor = 7
	SF8  SpreadingFactor = 8
	SF9  SpreadingFactor = 9
	SF10 SpreadingFactor = 10
	SF11 SpreadingFactor = 11
	SF12 SpreadingFactor = 12
)

// Valid reports whether the spreading factor is in the LoRaWAN range.
func (sf SpreadingFactor) Valid() bool { return sf >= SF7 && sf <= SF12 }

// SymbolSize returns 2^SF, the number of samples (and possible values) of a
// symbol at this spreading factor.
func (sf SpreadingFactor) SymbolSize() int { return 1 << sf }

// String implements fmt.Stringer.
func (sf SpreadingFactor) String() string { return fmt.Sprintf("SF%d", int(sf)) }

// CodeRate is the LoRa forward-error-correction rate: every 4 data bits are
// expanded to 4+CR coded bits. CR1 (4/5) detects single-bit errors per
// codeword; CR4 (4/8) corrects single-bit errors.
type CodeRate int

// Valid LoRa code rates.
const (
	CR45 CodeRate = 1 // 4/5
	CR46 CodeRate = 2 // 4/6
	CR47 CodeRate = 3 // 4/7
	CR48 CodeRate = 4 // 4/8
)

// Valid reports whether the code rate is one of the four LoRa rates.
func (cr CodeRate) Valid() bool { return cr >= CR45 && cr <= CR48 }

// CodewordBits returns the number of coded bits per 4-bit nibble.
func (cr CodeRate) CodewordBits() int { return 4 + int(cr) }

// String implements fmt.Stringer.
func (cr CodeRate) String() string { return fmt.Sprintf("4/%d", 4+int(cr)) }

// Params describes one LoRa PHY configuration.
type Params struct {
	SF SpreadingFactor
	// Bandwidth in Hz (125e3 or 500e3 in the paper's US deployment). The
	// sample rate equals the bandwidth.
	Bandwidth float64
	// CR is the payload code rate.
	CR CodeRate
	// PreambleLen is the number of base up-chirps that start each frame
	// (LoRaWAN default 8).
	PreambleLen int
	// SyncWord selects the two sync symbols following the preamble; public
	// LoRaWAN uses 0x34.
	SyncWord byte
	// SFDLen is the number of DOWN-chirp symbols between the sync word and
	// the data (real LoRa uses 2.25; this implementation models 0 or 2).
	// Down-chirps reverse the sign of the timing-offset contribution to the
	// dechirped peak, which lets a receiver split a transmitter's aggregate
	// offset into its CFO and timing components (see choir.SplitOffsets).
	// 0 disables the SFD; most of the evaluation runs without it, as the
	// Choir paper's aggregate-offset design does.
	SFDLen int
}

// The SX127x's frame limits: a one-byte payload length and a 16-bit preamble
// length register. They also keep a frame's sample count far from int's range.
const (
	MaxPayloadLen  = 255
	MaxPreambleLen = 65535
)

// DefaultParams returns the configuration used throughout the paper's
// evaluation: SF8 over 125 kHz with 4/8 coding and an 8-symbol preamble.
func DefaultParams() Params {
	return Params{SF: SF8, Bandwidth: 125e3, CR: CR48, PreambleLen: 8, SyncWord: 0x34}
}

// Validate returns an error describing the first invalid field, if any.
func (p Params) Validate() error {
	switch {
	case !p.SF.Valid():
		return fmt.Errorf("lora: invalid spreading factor %d", int(p.SF))
	case p.Bandwidth <= 0:
		return fmt.Errorf("lora: invalid bandwidth %g", p.Bandwidth)
	case !p.CR.Valid():
		return fmt.Errorf("lora: invalid code rate %d", int(p.CR))
	case p.PreambleLen < 2:
		return fmt.Errorf("lora: preamble length %d < 2", p.PreambleLen)
	case p.PreambleLen > MaxPreambleLen:
		return fmt.Errorf("lora: preamble length %d > %d", p.PreambleLen, MaxPreambleLen)
	case p.SFDLen < 0 || p.SFDLen > 4:
		return fmt.Errorf("lora: SFD length %d outside [0,4]", p.SFDLen)
	}
	return nil
}

// N returns the symbol size in samples, 2^SF.
func (p Params) N() int { return p.SF.SymbolSize() }

// SymbolRate returns symbols per second.
func (p Params) SymbolRate() float64 { return p.Bandwidth / float64(p.N()) }

// BitRate returns the effective payload bit rate in bits/s, accounting for
// the FEC expansion: SF · (4/(4+CR)) · BW/2^SF.
func (p Params) BitRate() float64 {
	return float64(p.SF) * 4 / float64(4+int(p.CR)) * p.SymbolRate()
}

// SyncSymbols returns the two symbol values that encode the sync word, one
// nibble per symbol scaled into the symbol space (matching SX127x behaviour
// of placing each nibble in the top bits).
func (p Params) SyncSymbols() [2]int {
	n := p.N()
	hi := int(p.SyncWord>>4) & 0xF
	lo := int(p.SyncWord) & 0xF
	return [2]int{hi * n / 16, lo * n / 16}
}

// HeaderSymbols returns the number of symbols in a frame's prologue —
// preamble, sync word, and SFD down-chirps — before the data symbols.
func (p Params) HeaderSymbols() int { return p.PreambleLen + 2 + p.SFDLen }

// ErrShortSignal is returned when a sample slice is too short to contain the
// structure being decoded.
var ErrShortSignal = errors.New("lora: signal too short")

// ErrPayloadLen is returned for a payload length no SX127x frame carries.
var ErrPayloadLen = errors.New("lora: payload length out of range")

// CheckPayloadLen refuses a payload length outside [0, MaxPayloadLen] with
// ErrPayloadLen. It is the one range check on a length arriving from
// outside the program: trace headers, command flags and decode requests.
func CheckPayloadLen(n int) error {
	if n < 0 || n > MaxPayloadLen {
		return fmt.Errorf("%w: %d not in [0, %d]", ErrPayloadLen, n, MaxPayloadLen)
	}
	return nil
}

// ErrCRC is returned when a decoded payload fails its CRC-16 check.
var ErrCRC = errors.New("lora: payload CRC mismatch")
