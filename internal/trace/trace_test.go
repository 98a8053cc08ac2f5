package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand/v2"
	"strings"
	"testing"

	"choir/internal/lora"
)

func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	samples := make([]complex128, 1000)
	for i := range samples {
		samples[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	h := Header{Params: lora.DefaultParams(), PayloadLen: 8, Users: []string{"aa", "bb"}}
	var buf bytes.Buffer
	if err := Write(&buf, h, samples); err != nil {
		t.Fatal(err)
	}
	got, gotSamples, err := Read(&buf)
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
	if _, _, err := Read(strings.NewReader("{\"magic\":\"nope\"}\n")); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, _, err := Read(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage header accepted")
	}
	if _, _, err := Read(strings.NewReader("")); err == nil {
		t.Error("empty stream accepted")
	}
}

func TestReadRejectsInvalidParams(t *testing.T) {
	h := Header{Params: lora.Params{SF: 3}, PayloadLen: 1}
	var buf bytes.Buffer
	if err := Write(&buf, h, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Read(&buf); err == nil {
		t.Error("invalid params accepted")
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

// countingReader counts the bytes it hands out.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestReadBoundsHeaderLine: a header line with no newline in sight fails
// with ErrFramedTooLarge once it passes MaxFramedHeader, well before the
// 2 MiB on offer has been read.
func TestReadBoundsHeaderLine(t *testing.T) {
	src := &countingReader{r: bytes.NewReader(bytes.Repeat([]byte{'x'}, 2<<20))}
	if _, _, err := Read(src); !errors.Is(err, ErrFramedTooLarge) {
		t.Errorf("2 MiB header line: err = %v, want ErrFramedTooLarge", err)
	}
	if src.n >= 2<<20 {
		t.Errorf("read %d bytes of the header line before refusing it, want < %d", src.n, 2<<20)
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
	if err := Write(&buf, Header{Params: lora.DefaultParams(), PayloadLen: 1}, []complex128{1, 2}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-7] // cut mid-sample
	if _, _, err := Read(bytes.NewReader(data)); err == nil {
		t.Error("truncated sample stream accepted")
	}
}
