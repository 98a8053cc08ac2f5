package lora

import "fmt"

// This file implements the LoRa payload coding chain: data whitening,
// Hamming forward error correction, the diagonal interleaver, and Gray
// mapping of interleaved codeword columns onto chirp symbols.
//
// The pipeline for transmission is
//
//	payload bytes → append CRC-16 → whiten → split into nibbles →
//	Hamming-encode each nibble to 4+CR bits → group SF codewords into a
//	block → diagonal-interleave the block into (4+CR) columns of SF bits →
//	Gray-decode each column into a symbol value.
//
// Reception runs the inverse in the opposite order. Gray mapping ensures a
// ±1 symbol error (the dominant error mode of chirp demodulation under
// noise) corrupts only one code bit, which the Hamming layer can absorb.

// Whiten XORs data with the LoRa whitening sequence in place and returns
// data. Whitening is an involution: applying it twice restores the input.
// The sequence is generated by the 9-bit LFSR x^9 + x^5 + 1 used by SX127x
// radios (one byte of PRBS per payload byte).
func Whiten(data []byte) []byte {
	lfsr := uint16(0x1FF)
	for i := range data {
		var b byte
		for bit := 0; bit < 8; bit++ {
			b = b<<1 | byte(lfsr&1)
			fb := (lfsr & 1) ^ ((lfsr >> 5) & 1)
			lfsr = lfsr>>1 | fb<<8
		}
		data[i] ^= b
	}
	return data
}

// GrayEncode converts a binary value to its Gray code.
func GrayEncode(v int) int { return v ^ (v >> 1) }

// GrayDecode inverts GrayEncode.
func GrayDecode(g int) int {
	v := 0
	for g != 0 {
		v ^= g
		g >>= 1
	}
	return v
}

// hammingEncodeNibble encodes a 4-bit nibble with the LoRa Hamming code at
// the given rate. Bit layout (LSB-first data bits d0..d3, parities p0..p3):
//
//	4/5: d0 d1 d2 d3 p0            p0 = d0⊕d1⊕d2⊕d3 (even parity)
//	4/6: d0 d1 d2 d3 p0 p1         p0 = d0⊕d1⊕d2, p1 = d1⊕d2⊕d3
//	4/7: Hamming(7,4)              p0 = d0⊕d1⊕d3, p1 = d0⊕d2⊕d3, p2 = d1⊕d2⊕d3
//	4/8: Hamming(7,4) + overall parity (SECDED)
func hammingEncodeNibble(nib byte, cr CodeRate) uint16 {
	d := [4]uint16{uint16(nib) & 1, uint16(nib>>1) & 1, uint16(nib>>2) & 1, uint16(nib>>3) & 1}
	cw := uint16(nib) & 0xF
	switch cr {
	case CR45:
		p0 := d[0] ^ d[1] ^ d[2] ^ d[3]
		cw |= p0 << 4
	case CR46:
		p0 := d[0] ^ d[1] ^ d[2]
		p1 := d[1] ^ d[2] ^ d[3]
		cw |= p0<<4 | p1<<5
	case CR47, CR48:
		p0 := d[0] ^ d[1] ^ d[3]
		p1 := d[0] ^ d[2] ^ d[3]
		p2 := d[1] ^ d[2] ^ d[3]
		cw |= p0<<4 | p1<<5 | p2<<6
		if cr == CR48 {
			var overall uint16
			for b := 0; b < 7; b++ {
				overall ^= (cw >> b) & 1
			}
			cw |= overall << 7
		}
	default:
		panic(fmt.Sprintf("lora: invalid code rate %d", int(cr)))
	}
	return cw
}

// hammingDecodeNibble decodes one codeword, correcting a single-bit error
// when the rate permits (4/7 and 4/8). It returns the nibble and whether the
// codeword was consistent (true) or contained an uncorrectable/detected-only
// error (false).
func hammingDecodeNibble(cw uint16, cr CodeRate) (byte, bool) {
	switch cr {
	case CR45:
		nib := byte(cw & 0xF)
		want := hammingEncodeNibble(nib, cr)
		return nib, cw == want
	case CR46:
		nib := byte(cw & 0xF)
		want := hammingEncodeNibble(nib, cr)
		return nib, cw == want
	case CR47, CR48:
		d := [4]uint16{cw & 1, (cw >> 1) & 1, (cw >> 2) & 1, (cw >> 3) & 1}
		p := [3]uint16{(cw >> 4) & 1, (cw >> 5) & 1, (cw >> 6) & 1}
		s0 := p[0] ^ d[0] ^ d[1] ^ d[3]
		s1 := p[1] ^ d[0] ^ d[2] ^ d[3]
		s2 := p[2] ^ d[1] ^ d[2] ^ d[3]
		syndrome := s0 | s1<<1 | s2<<2
		// Map syndrome to the erroneous bit position within the 7-bit word.
		// Syndromes for data bits: d0→011, d1→101, d2→110, d3→111;
		// parity bits: p0→001, p1→010, p2→100.
		corrected := cw
		switch syndrome {
		case 0:
			// consistent
		case 3:
			corrected ^= 1 << 0
		case 5:
			corrected ^= 1 << 1
		case 6:
			corrected ^= 1 << 2
		case 7:
			corrected ^= 1 << 3
		case 1:
			corrected ^= 1 << 4
		case 2:
			corrected ^= 1 << 5
		case 4:
			corrected ^= 1 << 6
		}
		ok := true
		if cr == CR48 {
			var overall uint16
			for b := 0; b < 8; b++ {
				overall ^= (corrected >> b) & 1
			}
			// With SECDED, a zero syndrome but bad overall parity (or vice
			// versa after correction) indicates a detected double error.
			if overall != 0 {
				ok = false
			}
		}
		return byte(corrected & 0xF), ok
	default:
		panic(fmt.Sprintf("lora: invalid code rate %d", int(cr)))
	}
}

// EncodeBlock encodes up to sf nibbles into (4+cr) interleaved symbols of sf
// bits each. Fewer than sf nibbles are zero-padded. The diagonal interleaver
// places bit b of codeword w at row (w+b) mod sf of column b, so that a
// corrupted symbol (one column) touches each codeword in a different bit
// position.
func EncodeBlock(nibbles []byte, sf SpreadingFactor, cr CodeRate) []int {
	rows := int(sf)
	if len(nibbles) > rows {
		panic(fmt.Sprintf("lora: block of %d nibbles exceeds SF%d rows", len(nibbles), rows))
	}
	cols := cr.CodewordBits()
	cws := make([]uint16, rows)
	for i, nib := range nibbles {
		cws[i] = hammingEncodeNibble(nib&0xF, cr)
	}
	syms := make([]int, cols)
	for b := 0; b < cols; b++ {
		col := 0
		for w := 0; w < rows; w++ {
			bit := int(cws[w]>>b) & 1
			row := (w + b) % rows
			col |= bit << row
		}
		syms[b] = GrayEncode(col)
	}
	return syms
}

// decodeBlock inverts EncodeBlock: it deinterleaves one block of (4+cr)
// symbol values into cws (one codeword per row, so len(cws) is the block's
// SF) and appends the Hamming-decoded nibbles to nibbles. bad counts the
// codewords with detected (uncorrectable) errors.
func decodeBlock(nibbles []byte, cws []uint16, syms []int, cr CodeRate) (_ []byte, bad int) {
	rows := len(cws)
	if cols := cr.CodewordBits(); len(syms) != cols {
		panic(fmt.Sprintf("lora: block has %d symbols, want %d", len(syms), cols))
	}
	clear(cws)
	for b, sym := range syms {
		col := GrayDecode(sym)
		for w := range cws {
			cws[w] |= uint16(col>>((w+b)%rows)) & 1 << b
		}
	}
	for _, cw := range cws {
		nib, ok := hammingDecodeNibble(cw, cr)
		nibbles = append(nibbles, nib)
		if !ok {
			bad++
		}
	}
	return nibbles, bad
}

// SymbolsPerPayload returns how many data symbols a payload of the given
// byte length occupies at (sf, cr), including the trailing CRC-16.
func SymbolsPerPayload(payloadLen int, sf SpreadingFactor, cr CodeRate) int {
	nibbles := (payloadLen + crcLen) * 2
	rows := int(sf)
	blocks := (nibbles + rows - 1) / rows
	return blocks * cr.CodewordBits()
}

// CRC16 computes the CCITT CRC-16 (polynomial 0x1021, init 0xFFFF) used to
// protect LoRa payloads.
func CRC16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

const crcLen = 2 // bytes of CRC-16 appended to every payload
