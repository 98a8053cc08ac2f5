package choir

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"choir/internal/lora"
)

// SFDecoder is the per-spreading-factor decode contract MultiSFDecoder fans
// out over. *Decoder satisfies it; so does any collision-resolution backend
// wrapped to fix its payload-length argument, which is how the backend
// registry reuses the multi-SF machinery for every algorithm.
type SFDecoder interface {
	// Decode decodes one SF's sub-stream from the shared capture, honoring
	// ctx between pipeline stages. It must be safe for the MultiSFDecoder to
	// call from its own goroutine (one per SF), which is the usual
	// single-owner discipline: each SFDecoder instance belongs to exactly
	// one MultiSFDecoder.
	Decode(ctx context.Context, samples []complex128, payloadLen int) (*Result, error)
}

// MultiSFDecoder runs Choir independently per spreading factor on the same
// received stream, implementing the concluding observation of Sec. 5.2:
// chirps of different spreading factors are quasi-orthogonal, so a
// congested network can spread its collisions across SFs and the base
// station can disentangle each SF's collision in parallel — the
// orthogonality handles the inter-SF separation, Choir handles the
// intra-SF collisions.
type MultiSFDecoder struct {
	decoders map[lora.SpreadingFactor]SFDecoder
}

// NewMultiSF builds one Choir decoder per requested spreading factor. All
// share the bandwidth and structural settings of base; base.LoRa.SF is
// ignored.
func NewMultiSF(base Config, sfs []lora.SpreadingFactor) (*MultiSFDecoder, error) {
	decs := make(map[lora.SpreadingFactor]SFDecoder, len(sfs))
	for _, sf := range sfs {
		if _, dup := decs[sf]; dup {
			return nil, fmt.Errorf("choir: duplicate spreading factor %v", sf)
		}
		cfg := base
		cfg.LoRa.SF = sf
		d, err := New(cfg)
		if err != nil {
			return nil, fmt.Errorf("choir: %v: %w", sf, err)
		}
		decs[sf] = d
	}
	return NewMultiSFFrom(decs)
}

// NewMultiSFFrom wraps caller-built per-SF decoders — typically backend
// instances — into a MultiSFDecoder. The map is used directly; the caller
// must not share its decoders with other goroutines afterwards.
func NewMultiSFFrom(decoders map[lora.SpreadingFactor]SFDecoder) (*MultiSFDecoder, error) {
	if len(decoders) == 0 {
		return nil, fmt.Errorf("choir: no spreading factors given")
	}
	for sf, d := range decoders {
		if d == nil {
			return nil, fmt.Errorf("choir: nil decoder for %v", sf)
		}
	}
	return &MultiSFDecoder{decoders: decoders}, nil
}

// SFResult is one spreading factor's slice of a multi-SF collision.
type SFResult struct {
	SF lora.SpreadingFactor
	// Result holds the users decoded at this SF; nil when nothing was
	// detected there.
	Result *Result
	// Err records a decode failure other than "no users" (signal too
	// short, etc.).
	Err error
}

// Decode demodulates the stream with every configured spreading factor's
// chirp and runs Choir on each resulting sub-stream. payloadLen maps each
// SF to its expected payload length (SFs absent from the map are skipped).
// The per-SF decodes run concurrently — one goroutine per configured
// spreading factor, which is safe because each SF owns its own decoder and
// the shared sample slice is only read. ctx bounds the whole grid: when it
// fires mid-decode each still-running SF returns its decoder's typed
// cancellation error (ErrCanceled/ErrDeadline) in its SFResult, while SFs
// that already finished keep their results. Results are returned in
// ascending SF order regardless of completion order.
func (m *MultiSFDecoder) Decode(ctx context.Context, samples []complex128, payloadLen map[lora.SpreadingFactor]int) []SFResult {
	type slot struct {
		sf   lora.SpreadingFactor
		plen int
	}
	var slots []slot
	for sf := lora.SF7; sf <= lora.SF12; sf++ {
		if _, ok := m.decoders[sf]; !ok {
			continue
		}
		plen, ok := payloadLen[sf]
		if !ok {
			continue
		}
		slots = append(slots, slot{sf, plen})
	}
	out := make([]SFResult, len(slots))
	var wg sync.WaitGroup
	for i, s := range slots {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := m.decoders[s.sf].Decode(ctx, samples, s.plen)
			out[i] = sfResult(s.sf, res, err)
		}()
	}
	wg.Wait()
	return out
}

// sfResult folds one SF's decode into its SFResult, treating "no users" as
// an empty slot rather than a failure.
func sfResult(sf lora.SpreadingFactor, res *Result, err error) SFResult {
	sr := SFResult{SF: sf}
	switch {
	case err == nil:
		sr.Result = res
	case errors.Is(err, ErrNoUsers):
		// Nothing transmitted at this SF — not an error.
	default:
		sr.Err = err
	}
	return sr
}

// Decoder returns the per-SF Choir decoder (nil if the SF was not configured
// or is backed by a non-Choir SFDecoder), for callers needing team decoding
// or direct access at one SF.
func (m *MultiSFDecoder) Decoder(sf lora.SpreadingFactor) *Decoder {
	d, _ := m.decoders[sf].(*Decoder)
	return d
}
