package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"

	"choir/internal/lora"
)

// framed renders a trace's preface by hand — header length, the header
// bytes as given, sample count — followed by raw sample bytes.
func framed(meta string, count uint32, samples []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(meta)))
	b = append(b, meta...)
	b = binary.LittleEndian.AppendUint32(b, count)
	return append(b, samples...)
}

// TestWriteReadRoundTrip: a capture file written with WriteFramed reads
// back through ReadFile with its header and every sample intact.
func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	samples := make([]complex128, 1000)
	for i := range samples {
		samples[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	h := Header{Params: lora.DefaultParams(), PayloadLen: 8, Users: []string{"aa", "bb"}}
	var buf bytes.Buffer
	if err := WriteFramed(&buf, h, samples); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "a.iq")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, gotSamples, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.PayloadLen != 8 || got.Params != h.Params || len(got.Users) != 2 {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(gotSamples) != len(samples) {
		t.Fatalf("%d samples, want %d", len(gotSamples), len(samples))
	}
	for i := range samples {
		if gotSamples[i] != samples[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	data := framed(`{"magic":"nope"}`, 1, make([]byte, 16))
	if _, _, err := ReadFramed(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("bad magic: err = %v", err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, _, err := ReadFramed(bytes.NewReader(framed("not json", 1, make([]byte, 16)))); err == nil {
		t.Error("garbage header accepted")
	}
	if _, _, err := ReadFramed(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Errorf("empty stream: err = %v, want io.EOF", err)
	}
}

func TestReadRejectsInvalidParams(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFramed(&buf, Header{Params: lora.Params{SF: 3}, PayloadLen: 1}, []complex128{1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFramed(&buf); err == nil {
		t.Error("invalid params accepted")
	}
}

// TestReadRejectsNegativePayloadLen: the preface refuses a header whose
// payload length is negative, so no decoder is handed one.
func TestReadRejectsNegativePayloadLen(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFramed(&buf, Header{Params: lora.DefaultParams(), PayloadLen: -1}, []complex128{1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFramedPreface(&buf); !errors.Is(err, lora.ErrPayloadLen) || !strings.Contains(err.Error(), "-1 not in [0, 255]") {
		t.Errorf("payload_len -1: err = %v", err)
	}
}

// TestReadRejectsLengthsPastTheRadio: the preface refuses a payload or a
// preamble longer than an SX127x can send, whose frame would overflow int.
func TestReadRejectsLengthsPastTheRadio(t *testing.T) {
	long := lora.DefaultParams()
	long.PreambleLen = 1 << 56
	for _, tc := range []struct {
		h    Header
		want string
	}{
		{Header{Params: lora.DefaultParams(), PayloadLen: lora.MaxPayloadLen + 1}, "payload length out of range: 256 not in [0, 255]"},
		{Header{Params: lora.DefaultParams(), PayloadLen: 47_000_000_000_000_000}, "payload length out of range: 47000000000000000 not in [0, 255]"},
		{Header{Params: long, PayloadLen: 4}, "preamble length 72057594037927936 > 65535"},
	} {
		var buf bytes.Buffer
		if err := WriteFramed(&buf, tc.h, []complex128{1}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadFramedPreface(&buf); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v", tc.want, err)
		}
	}
	ok := lora.DefaultParams()
	ok.PreambleLen = lora.MaxPreambleLen
	var buf bytes.Buffer
	if err := WriteFramed(&buf, Header{Params: ok, PayloadLen: lora.MaxPayloadLen}, []complex128{1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFramedPreface(&buf); err != nil {
		t.Errorf("the largest lengths: %v", err)
	}
}

func TestReadFramedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	samples := make([]complex128, framedAllocChunk+37) // force a chunked grow
	for i := range samples {
		samples[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	h := Header{Params: lora.DefaultParams(), PayloadLen: 8}
	var buf bytes.Buffer
	if err := WriteFramed(&buf, h, samples); err != nil {
		t.Fatal(err)
	}
	got, gotSamples, err := ReadFramed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.PayloadLen != 8 || got.Params != h.Params {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(gotSamples) != len(samples) {
		t.Fatalf("%d samples, want %d", len(gotSamples), len(samples))
	}
	for i := range samples {
		if gotSamples[i] != samples[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestReadFramedRejectsHostileLengths(t *testing.T) {
	// Huge header length: typed error, no attempt to honor the allocation.
	if _, _, err := ReadFramed(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff})); !errors.Is(err, ErrFramedTooLarge) {
		t.Errorf("huge header length: err = %v, want ErrFramedTooLarge", err)
	}
	if _, _, err := ReadFramed(bytes.NewReader([]byte{0, 0, 0, 0})); !errors.Is(err, ErrFramedTooLarge) {
		t.Errorf("zero header length: err = %v, want ErrFramedTooLarge", err)
	}
	// Valid header, hostile sample count.
	var buf bytes.Buffer
	if err := WriteFramed(&buf, Header{Params: lora.DefaultParams(), PayloadLen: 1}, []complex128{1}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	cut := len(b) - 16 - 4 // strip the sample and its count prefix
	hostile := append(append([]byte{}, b[:cut]...), 0xff, 0xff, 0xff, 0xff)
	if _, _, err := ReadFramed(bytes.NewReader(hostile)); !errors.Is(err, ErrFramedTooLarge) {
		t.Errorf("huge sample count: err = %v, want ErrFramedTooLarge", err)
	}
	// A large-but-legal count with no data behind it must fail on the read,
	// not allocate the declared size up front.
	legal := append(append([]byte{}, b[:cut]...), 0, 0, 0, 1) // 2^24 samples declared
	if _, _, err := ReadFramed(bytes.NewReader(legal)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("undelivered count: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestReadFramedStopsAtFrameEnd: two frames back to back on one reader
// read as two traces, so nothing of the second is consumed by the first.
func TestReadFramedStopsAtFrameEnd(t *testing.T) {
	var buf bytes.Buffer
	for _, n := range []int{3, 5} {
		if err := WriteFramed(&buf, Header{Params: lora.DefaultParams(), PayloadLen: n}, make([]complex128, n)); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{3, 5} {
		h, samples, err := ReadFramed(&buf)
		if err != nil || h.PayloadLen != n || len(samples) != n {
			t.Fatalf("frame of %d: payload %d, %d samples, err %v", n, h.PayloadLen, len(samples), err)
		}
	}
	if buf.Len() != 0 {
		t.Errorf("%d bytes left after both frames", buf.Len())
	}
}

// TestReadSamplesShortReads: reads that split samples anywhere, down to
// one byte at a time, give the same samples, and progress accounts for
// each one exactly once.
func TestReadSamplesShortReads(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	want := make([]complex128, 600) // more than one 8 KiB read
	for i := range want {
		want[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	var buf bytes.Buffer
	if err := WriteFramed(&buf, Header{Params: lora.DefaultParams(), PayloadLen: 1}, want); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[buf.Len()-16*len(want):]
	for name, r := range map[string]io.Reader{
		"whole":    bytes.NewReader(raw),
		"one byte": iotest.OneByteReader(bytes.NewReader(raw)),
		"half":     iotest.HalfReader(bytes.NewReader(raw)),
		"data+EOF": iotest.DataErrReader(bytes.NewReader(raw)),
	} {
		got := make([]complex128, len(want))
		reported := 0
		n, err := ReadSamples(r, got, func(k int) { reported += k })
		if err != nil || n != len(want) || reported != len(want) {
			t.Errorf("%s: filled %d, reported %d, err %v; want %d", name, n, reported, err, len(want))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: sample %d differs", name, i)
				break
			}
		}
	}
}

func TestReadFramedTornTail(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFramed(&buf, Header{Params: lora.DefaultParams(), PayloadLen: 1}, []complex128{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-7]
	if _, _, err := ReadFramed(bytes.NewReader(data)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("torn tail: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestReadTruncatedSamples(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFramed(&buf, Header{Params: lora.DefaultParams(), PayloadLen: 1}, []complex128{1, 2}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-16] // a whole sample missing
	if _, _, err := ReadFramed(bytes.NewReader(data)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated sample stream: err = %v, want io.ErrUnexpectedEOF", err)
	}
}
