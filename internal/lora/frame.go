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

// CodecScratch holds the working buffers of DecodeSymbolsInto so repeated
// payload decodes allocate nothing once the buffers have grown. One scratch
// belongs to one goroutine; the decoder keeps one per pooled Decoder.
type CodecScratch struct {
	cws     []uint16
	nibbles []byte
	buf     []byte
}

// DecodeSymbols inverts EncodeSymbols given the expected payload length.
// It returns the recovered payload and an error if the CRC fails or the
// symbol stream is too short. badCodewords counts FEC codewords with
// detected errors, a useful soft quality metric even when the CRC passes.
func DecodeSymbols(syms []int, payloadLen int, p Params) (payload []byte, badCodewords int, err error) {
	var s CodecScratch
	return DecodeSymbolsInto(&s, nil, syms, payloadLen, p)
}

// DecodeSymbolsInto is the payload decoder: it deinterleaves and
// Hamming-corrects each block, dewhitens, and checks the CRC, writing the
// payload into dst (grown when too small or nil) and drawing all temporaries
// from s. The returned payload aliases dst's storage; it is never nil unless
// the length is out of range (ErrPayloadLen) or the symbol stream is too
// short, so a frame of 0 payload bytes decodes to an empty, non-nil payload.
func DecodeSymbolsInto(s *CodecScratch, dst []byte, syms []int, payloadLen int, p Params) (payload []byte, badCodewords int, err error) {
	if err := CheckPayloadLen(payloadLen); err != nil {
		return nil, 0, err
	}
	need := SymbolsPerPayload(payloadLen, p.SF, p.CR)
	if len(syms) < need {
		return nil, 0, fmt.Errorf("%w: have %d data symbols, need %d", ErrShortSignal, len(syms), need)
	}
	rows := int(p.SF)
	if cap(s.cws) < rows {
		s.cws = make([]uint16, rows)
	}
	cols := p.CR.CodewordBits()
	nibbles := s.nibbles[:0]
	for start := 0; start < need; start += cols {
		var bad int
		nibbles, bad = decodeBlock(nibbles, s.cws[:rows], syms[start:start+cols], p.CR)
		badCodewords += bad
	}
	s.nibbles = nibbles

	total := payloadLen + crcLen
	if cap(s.buf) < total {
		s.buf = make([]byte, total)
	}
	buf := s.buf[:total]
	for i := range buf {
		buf[i] = nibbles[2*i] | nibbles[2*i+1]<<4
	}
	Whiten(buf)
	if dst == nil || cap(dst) < payloadLen {
		dst = make([]byte, payloadLen)
	}
	payload = dst[:payloadLen]
	copy(payload, buf)
	if CRC16(payload) != binary.BigEndian.Uint16(buf[payloadLen:]) {
		return payload, badCodewords, ErrCRC
	}
	return payload, badCodewords, nil
}

// FrameSymbols returns the full symbol sequence of a frame: preamble
// up-chirps, the two sync symbols, SFD down-chirps (the DownChirpSymbol
// sentinel) and the coded payload. It is the one frame layout: Modulate and
// ModulateFrameShifted both render it.
func (m *Modem) FrameSymbols(payload []byte) []int {
	p := m.Params
	syms := make([]int, 0, p.HeaderSymbols())
	for i := 0; i < p.PreambleLen; i++ {
		syms = append(syms, 0)
	}
	sync := p.SyncSymbols()
	syms = append(syms, sync[0], sync[1])
	for i := 0; i < p.SFDLen; i++ {
		syms = append(syms, DownChirpSymbol)
	}
	return append(syms, EncodeSymbols(payload, p)...)
}

// Modulate renders the complete frame (FrameSymbols) into baseband IQ
// samples on the receiver's sample grid.
func (m *Modem) Modulate(payload []byte) []complex128 {
	syms := m.FrameSymbols(payload)
	out := make([]complex128, 0, len(syms)*m.Params.N())
	for _, s := range syms {
		switch s {
		case 0: // ModulateSymbol(m.up, 0) bit for bit, without its Sincos
			out = append(out, m.up...)
		case DownChirpSymbol:
			out = append(out, m.down...)
		default:
			out = append(out, ModulateSymbol(m.up, s)...)
		}
	}
	return out
}

// FrameSamples returns the total number of samples of a frame carrying
// payloadLen bytes.
func (p Params) FrameSamples(payloadLen int) int {
	return (p.HeaderSymbols() + SymbolsPerPayload(payloadLen, p.SF, p.CR)) * p.N()
}

// CheckFrame is the one check of a decode request: it refuses a payload
// length CheckPayloadLen refuses, then a capture of nSamples too short for
// the frame (ErrShortSignal). Every decoder entry point calls it before it
// dechirps anything.
func (p Params) CheckFrame(nSamples, payloadLen int) error {
	if err := CheckPayloadLen(payloadLen); err != nil {
		return err
	}
	if need := p.FrameSamples(payloadLen); nSamples < need {
		return fmt.Errorf("%w: have %d samples, need %d", ErrShortSignal, nSamples, need)
	}
	return nil
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
	if err := p.CheckFrame(len(samples), payloadLen); err != nil {
		return nil, err
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
