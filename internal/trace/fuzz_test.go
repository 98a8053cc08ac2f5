package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// FuzzReadFramed asserts the framed-format parser never panics and never
// pre-allocates from a hostile length prefix: every input either parses or
// fails with a typed error, within bounded memory.
func FuzzReadFramed(f *testing.F) {
	var buf bytes.Buffer
	h := Header{PayloadLen: 4}
	h.Params.SF = 8
	h.Params.Bandwidth = 125e3
	h.Params.CR = 4
	h.Params.PreambleLen = 8
	_ = WriteFramed(&buf, h, []complex128{1, 2i, -3})
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-7]) // torn mid-sample
	f.Add(valid[:6])            // torn mid-header
	// Hostile prefixes: huge header length, huge sample count.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	hostile := append([]byte{}, valid[:4+int(valid[0])]...)
	hostile = append(hostile, 0xff, 0xff, 0xff, 0x7f)
	f.Add(hostile)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, samples, err := ReadFramed(bytes.NewReader(data))
		if err == nil {
			if h.Magic != Magic {
				t.Fatalf("accepted bad magic %q", h.Magic)
			}
			if len(samples) == 0 || len(samples) > MaxFramedSamples {
				t.Fatalf("accepted %d samples outside (0, %d]", len(samples), MaxFramedSamples)
			}
		}
	})
}

// FuzzWriteReadRoundTrip asserts that ReadFramed returns what WriteFramed
// wrote, bit for bit, for arbitrary sample values — NaNs included — and
// refuses only the empty capture, whose zero count no reader accepts.
func FuzzWriteReadRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		samples := make([]complex128, len(raw)/16)
		for i := range samples {
			re := math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i:]))
			im := math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:]))
			samples[i] = complex(re, im)
		}
		h := Header{PayloadLen: 1}
		h.Params.SF = 8
		h.Params.Bandwidth = 125e3
		h.Params.CR = 4
		h.Params.PreambleLen = 8
		var buf bytes.Buffer
		if err := WriteFramed(&buf, h, samples); err != nil {
			t.Fatal(err)
		}
		_, got, err := ReadFramed(&buf)
		if len(samples) == 0 {
			if !errors.Is(err, ErrFramedTooLarge) {
				t.Fatalf("empty capture: err = %v, want ErrFramedTooLarge", err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(samples) {
			t.Fatalf("%d samples, want %d", len(got), len(samples))
		}
		for i := range samples {
			if bits(got[i]) != bits(samples[i]) {
				t.Fatalf("sample %d differs", i)
			}
		}
	})
}

func bits(v complex128) [2]uint64 {
	return [2]uint64{math.Float64bits(real(v)), math.Float64bits(imag(v))}
}
