// Package trace defines the IQ trace-file format shared by cmd/choir-gen
// and cmd/choir-decode: a one-line JSON header describing the PHY
// configuration and payload length, followed by little-endian float64 I/Q
// sample pairs. It stands in for the UHD/GNU Radio capture files of the
// paper's USRP deployment.
package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"choir/internal/lora"
)

// Magic identifies trace files.
const Magic = "CHOIR-IQ-1"

// Framed-format sanity bounds. A peer (or a corrupt journal record)
// declaring a larger header or frame than these is rejected with
// ErrFramedTooLarge before any allocation is attempted, so a hostile
// four-byte length prefix can never turn into a multi-gigabyte make().
const (
	// MaxFramedHeader caps the JSON header section of a framed trace (1 MiB).
	MaxFramedHeader = 1 << 20
	// MaxFramedSamples caps a framed trace's sample count (64M samples,
	// 1 GiB of IQ).
	MaxFramedSamples = 1 << 26
)

// ErrFramedTooLarge reports a framed-trace length prefix beyond the
// MaxFramedHeader / MaxFramedSamples sanity bounds (or a zero length, which
// no writer emits), or a Read header line longer than MaxFramedHeader. The
// reader returns it instead of attempting the allocation the hostile header
// asks for.
var ErrFramedTooLarge = errors.New("trace: framed length prefix out of range")

// Header is the trace metadata.
type Header struct {
	Magic      string      `json:"magic"`
	Params     lora.Params `json:"params"`
	PayloadLen int         `json:"payload_len"`
	// Users optionally records the ground-truth payloads (hex) for
	// self-checking decode runs.
	Users []string `json:"users,omitempty"`
}

// Write serializes a trace.
func Write(w io.Writer, h Header, samples []complex128) error {
	h.Magic = Magic
	bw := bufio.NewWriter(w)
	meta, err := json.Marshal(h)
	if err != nil {
		return fmt.Errorf("trace: encoding header: %w", err)
	}
	if _, err := bw.Write(append(meta, '\n')); err != nil {
		return err
	}
	buf := make([]byte, 16)
	for _, v := range samples {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(imag(v)))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFramed serializes a trace in the length-prefixed streaming framing
// the gateway's ServeTCPStream accepts: a little-endian uint32 header
// length, the JSON header, a little-endian uint32 sample count, then the
// samples as little-endian float64 I/Q pairs. Unlike Write's EOF-delimited
// layout, the receiver knows the frame's size up front and can start
// decoding before the last sample arrives.
func WriteFramed(w io.Writer, h Header, samples []complex128) error {
	h.Magic = Magic
	meta, err := json.Marshal(h)
	if err != nil {
		return fmt.Errorf("trace: encoding header: %w", err)
	}
	bw := bufio.NewWriter(w)
	var n4 [4]byte
	binary.LittleEndian.PutUint32(n4[:], uint32(len(meta)))
	if _, err := bw.Write(n4[:]); err != nil {
		return err
	}
	if _, err := bw.Write(meta); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(n4[:], uint32(len(samples)))
	if _, err := bw.Write(n4[:]); err != nil {
		return err
	}
	buf := make([]byte, 16)
	for _, v := range samples {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(imag(v)))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadFramedPreface parses the framed format's preface — the length-prefixed
// JSON header and the sample count — leaving r positioned at the first
// sample byte. Both length prefixes are validated against the framed sanity
// bounds before anything is allocated (ErrFramedTooLarge), and the header's
// magic and PHY parameters are validated like Read's. The gateway's
// streaming ingest uses it to admit a frame before the samples arrive.
func ReadFramedPreface(r io.Reader) (Header, int, error) {
	var n4 [4]byte
	if _, err := io.ReadFull(r, n4[:]); err != nil {
		return Header{}, 0, fmt.Errorf("trace: reading header length: %w", err)
	}
	hlen := binary.LittleEndian.Uint32(n4[:])
	if hlen == 0 || hlen > MaxFramedHeader {
		return Header{}, 0, fmt.Errorf("%w: header length %d (max %d)", ErrFramedTooLarge, hlen, MaxFramedHeader)
	}
	meta := make([]byte, hlen)
	if _, err := io.ReadFull(r, meta); err != nil {
		return Header{}, 0, fmt.Errorf("trace: reading header: %w", err)
	}
	var h Header
	if err := json.Unmarshal(meta, &h); err != nil {
		return Header{}, 0, fmt.Errorf("trace: decoding header: %w", err)
	}
	if h.Magic != Magic {
		return Header{}, 0, fmt.Errorf("trace: bad magic %q", h.Magic)
	}
	if err := h.Params.Validate(); err != nil {
		return Header{}, 0, err
	}
	if _, err := io.ReadFull(r, n4[:]); err != nil {
		return Header{}, 0, fmt.Errorf("trace: reading sample count: %w", err)
	}
	count := binary.LittleEndian.Uint32(n4[:])
	if count == 0 || count > MaxFramedSamples {
		return Header{}, 0, fmt.Errorf("%w: sample count %d (max %d)", ErrFramedTooLarge, count, MaxFramedSamples)
	}
	return h, int(count), nil
}

// framedAllocChunk bounds how many samples ReadFramed allocates ahead of the
// bytes actually read, so a declared count only costs memory the input can
// back (64k samples = 1 MiB per step).
const framedAllocChunk = 1 << 16

// ReadFramed parses a WriteFramed-serialized trace. The declared sample
// count steers the read but never the allocation: storage grows chunk by
// chunk as sample bytes actually arrive, so a hostile count prefix cannot
// force a huge up-front make() (it fails with io.ErrUnexpectedEOF as soon
// as the input runs dry). Counts beyond MaxFramedSamples are rejected with
// ErrFramedTooLarge.
func ReadFramed(r io.Reader) (Header, []complex128, error) {
	h, count, err := ReadFramedPreface(r)
	if err != nil {
		return Header{}, nil, err
	}
	var samples []complex128
	buf := make([]byte, 16)
	for len(samples) < count {
		if len(samples) == cap(samples) {
			grow := count - len(samples)
			if grow > framedAllocChunk {
				grow = framedAllocChunk
			}
			next := make([]complex128, len(samples), len(samples)+grow)
			copy(next, samples)
			samples = next
		}
		if _, err := io.ReadFull(r, buf); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Header{}, nil, fmt.Errorf("trace: reading sample %d/%d: %w", len(samples), count, err)
		}
		re := math.Float64frombits(binary.LittleEndian.Uint64(buf))
		im := math.Float64frombits(binary.LittleEndian.Uint64(buf[8:]))
		samples = append(samples, complex(re, im))
	}
	return h, samples, nil
}

// Read parses a trace. Its header line is held to ReadFramed's
// MaxFramedHeader: a longer line fails with ErrFramedTooLarge before more of
// it is buffered.
func Read(r io.Reader) (Header, []complex128, error) {
	br := bufio.NewReader(r)
	line, err := readHeaderLine(br)
	if err != nil {
		return Header{}, nil, err
	}
	var h Header
	if err := json.Unmarshal(line, &h); err != nil {
		return Header{}, nil, fmt.Errorf("trace: decoding header: %w", err)
	}
	if h.Magic != Magic {
		return Header{}, nil, fmt.Errorf("trace: bad magic %q", h.Magic)
	}
	if err := h.Params.Validate(); err != nil {
		return Header{}, nil, err
	}
	var samples []complex128
	buf := make([]byte, 16)
	for {
		_, err := io.ReadFull(br, buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			return Header{}, nil, fmt.Errorf("trace: reading samples: %w", err)
		}
		re := math.Float64frombits(binary.LittleEndian.Uint64(buf))
		im := math.Float64frombits(binary.LittleEndian.Uint64(buf[8:]))
		samples = append(samples, complex(re, im))
	}
	return h, samples, nil
}

// readHeaderLine reads Read's header line, newline included, refusing one
// whose JSON exceeds MaxFramedHeader bytes.
func readHeaderLine(br *bufio.Reader) ([]byte, error) {
	var line []byte
	for {
		chunk, err := br.ReadSlice('\n')
		if len(line)+len(chunk) > MaxFramedHeader+1 {
			return nil, fmt.Errorf("%w: header line longer than %d bytes", ErrFramedTooLarge, MaxFramedHeader)
		}
		line = append(line, chunk...)
		switch err {
		case nil:
			return line, nil
		case bufio.ErrBufferFull:
		default:
			return nil, fmt.Errorf("trace: reading header: %w", err)
		}
	}
}
