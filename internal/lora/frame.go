package lora

import (
	"encoding/binary"
	"fmt"
)

// EncodeSymbols converts a payload into the frame's data-symbol sequence
// (excluding preamble and sync): payload ‖ CRC-16, whitened, Hamming-coded
// and interleaved per the coding chain in coding.go.
func EncodeSymbols(payload []byte, p Params) []int {
	buf := make([]byte, len(payload)+crcLen)
	copy(buf, payload)
	binary.BigEndian.PutUint16(buf[len(payload):], CRC16(payload))
	Whiten(buf)

	nibbles := make([]byte, 0, len(buf)*2)
	for _, b := range buf {
		nibbles = append(nibbles, b&0xF, b>>4)
	}
	rows := int(p.SF)
	var syms []int
	for start := 0; start < len(nibbles); start += rows {
		end := start + rows
		if end > len(nibbles) {
			end = len(nibbles)
		}
		syms = append(syms, EncodeBlock(nibbles[start:end], p.SF, p.CR)...)
	}
	return syms
}

// DecodeSymbols inverts EncodeSymbols given the expected payload length.
// It returns the recovered payload and an error if the CRC fails or the
// symbol stream is too short. badCodewords counts FEC codewords with
// detected errors, a useful soft quality metric even when the CRC passes.
func DecodeSymbols(syms []int, payloadLen int, p Params) (payload []byte, badCodewords int, err error) {
	need := SymbolsPerPayload(payloadLen, p.SF, p.CR)
	if len(syms) < need {
		return nil, 0, fmt.Errorf("%w: have %d data symbols, need %d", ErrShortSignal, len(syms), need)
	}
	cols := p.CR.CodewordBits()
	var nibbles []byte
	for start := 0; start+cols <= need; start += cols {
		nibs, bad := DecodeBlock(syms[start:start+cols], p.SF, p.CR)
		badCodewords += bad
		nibbles = append(nibbles, nibs...)
	}
	total := payloadLen + crcLen
	buf := make([]byte, total)
	for i := 0; i < total; i++ {
		buf[i] = nibbles[2*i] | nibbles[2*i+1]<<4
	}
	Whiten(buf)
	payload = buf[:payloadLen]
	wantCRC := binary.BigEndian.Uint16(buf[payloadLen:])
	if CRC16(payload) != wantCRC {
		return payload, badCodewords, ErrCRC
	}
	return payload, badCodewords, nil
}

// Modulate renders the complete frame — preamble up-chirps, two sync
// symbols, and the coded payload — into baseband IQ samples.
func (m *Modem) Modulate(payload []byte) []complex128 {
	p := m.Params
	syms := EncodeSymbols(payload, p)
	sync := p.SyncSymbols()
	n := p.N()
	out := make([]complex128, 0, (p.HeaderSymbols()+len(syms))*n)
	for i := 0; i < p.PreambleLen; i++ {
		out = append(out, m.up...)
	}
	out = append(out, m.Symbol(sync[0])...)
	out = append(out, m.Symbol(sync[1])...)
	for i := 0; i < p.SFDLen; i++ {
		out = append(out, m.down...)
	}
	for _, s := range syms {
		out = append(out, m.Symbol(s)...)
	}
	return out
}

// FrameSamples returns the total number of samples of a frame carrying
// payloadLen bytes.
func (p Params) FrameSamples(payloadLen int) int {
	return (p.HeaderSymbols() + SymbolsPerPayload(payloadLen, p.SF, p.CR)) * p.N()
}

// AirTime returns the on-air duration in seconds of a frame carrying
// payloadLen bytes.
func (p Params) AirTime(payloadLen int) float64 {
	return float64(p.FrameSamples(payloadLen)) / p.Bandwidth
}

// Demodulate decodes a clean (single-transmitter, frame-aligned) sample
// stream back into the payload. This is the standard-LoRaWAN receiver used
// by the baselines; it cannot separate collisions. The signal must start at
// the first preamble sample. Extra trailing samples are ignored.
func (m *Modem) Demodulate(samples []complex128, payloadLen int) ([]byte, error) {
	p := m.Params
	n := p.N()
	need := p.FrameSamples(payloadLen)
	if len(samples) < need {
		return nil, fmt.Errorf("%w: have %d samples, need %d", ErrShortSignal, len(samples), need)
	}
	// Verify sync symbols to reject frames from other networks.
	sync := p.SyncSymbols()
	for i, want := range sync {
		off := (p.PreambleLen + i) * n
		got, _ := m.DemodulateSymbolAt(samples, off)
		if got != want {
			return nil, fmt.Errorf("lora: sync symbol %d is %d, want %d", i, got, want)
		}
	}
	nsym := SymbolsPerPayload(payloadLen, p.SF, p.CR)
	syms := make([]int, nsym)
	for i := 0; i < nsym; i++ {
		off := (p.HeaderSymbols() + i) * n
		syms[i], _ = m.DemodulateSymbolAt(samples, off)
	}
	payload, _, err := DecodeSymbols(syms, payloadLen, p)
	return payload, err
}

// DemodulateSymbolAt demodulates the symbol starting at sample offset off.
func (m *Modem) DemodulateSymbolAt(samples []complex128, off int) (int, complex128) {
	n := m.Params.N()
	if off < 0 || off+n > len(samples) {
		panic(fmt.Sprintf("lora: symbol at %d exceeds signal of %d samples", off, len(samples)))
	}
	return m.DemodulateChirp(samples[off : off+n])
}
