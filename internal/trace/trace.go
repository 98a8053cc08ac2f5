// Package trace defines the IQ trace format: a JSON header describing the
// PHY configuration and payload length, then the capture's samples as
// little-endian float64 I/Q pairs, each section behind a little-endian
// uint32 length. It is the one encoding of cmd/choir-gen's capture files
// (the stand-in for the UHD/GNU Radio captures of the paper's USRP
// deployment), of the gateway's TCP ingest and of its journal records, so
// a capture file is also a wire frame.
package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"choir/internal/lora"
)

// Magic identifies traces.
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
// no writer emits). The reader returns it instead of attempting the
// allocation the hostile prefix asks for.
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

// Validate refuses a header no decoder accepts: invalid PHY parameters, or a
// payload length lora.CheckPayloadLen refuses. It is what the framed reader
// and the gateway's in-process Submit both check.
func (h Header) Validate() error {
	if err := h.Params.Validate(); err != nil {
		return err
	}
	return lora.CheckPayloadLen(h.PayloadLen)
}

// WriteFramed serializes a trace: a little-endian uint32 header length, the
// JSON header, a little-endian uint32 sample count, then the samples as
// little-endian float64 I/Q pairs. The reader knows the frame's size from
// its preface, so the gateway's ServeTCPStream can start decoding before
// the last sample arrives.
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
// bounds before anything is allocated (ErrFramedTooLarge), and so are the
// header's magic, PHY parameters and payload length. The gateway's
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
	if err := h.Validate(); err != nil {
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
// ErrFramedTooLarge. Nothing past the frame's last byte is read.
func ReadFramed(r io.Reader) (Header, []complex128, error) {
	h, count, err := ReadFramedPreface(r)
	if err != nil {
		return Header{}, nil, err
	}
	var samples []complex128
	for len(samples) < count {
		filled := len(samples)
		grow := min(count-filled, framedAllocChunk)
		samples = slices.Grow(samples, grow)[:filled+grow]
		n, err := ReadSamples(r, samples[filled:], nil)
		if err != nil {
			return Header{}, nil, fmt.Errorf("trace: reading sample %d/%d: %w", filled+n, count, err)
		}
	}
	return h, samples, nil
}

// ReadSamples fills dst with little-endian float64 I/Q pairs from r,
// consuming exactly 16*len(dst) bytes and never more, so a frame's reader
// stops at the frame's last byte. A read may end mid-sample; the partial
// sample is completed by the next one. After each read, progress (when
// non-nil) gets the number of samples that read completed, possibly 0. It
// returns how many samples were filled; an input that ends before dst is
// full fails with io.ErrUnexpectedEOF.
func ReadSamples(r io.Reader, dst []complex128, progress func(n int)) (int, error) {
	var (
		chunk  [8192]byte // a multiple of the 16-byte sample
		carry  int        // bytes of a split sample at the front of chunk
		filled int
	)
	for filled < len(dst) {
		end := min(len(chunk), 16*(len(dst)-filled))
		n, err := r.Read(chunk[carry:end])
		data := chunk[:carry+n]
		done := 0
		for ; len(data) >= 16; done++ {
			re := math.Float64frombits(binary.LittleEndian.Uint64(data))
			im := math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
			dst[filled+done] = complex(re, im)
			data = data[16:]
		}
		carry = copy(chunk[:], data)
		filled += done
		if progress != nil {
			progress(done)
		}
		if err != nil && filled < len(dst) {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return filled, err
		}
	}
	return filled, nil
}

// ReadFile reads the trace in the capture file at path.
func ReadFile(path string) (Header, []complex128, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, nil, err
	}
	defer f.Close()
	return ReadFramed(bufio.NewReader(f))
}
