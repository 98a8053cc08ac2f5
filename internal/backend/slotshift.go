package backend

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"choir/internal/choir"
	"choir/internal/lora"
)

func init() {
	Register("slotshift", func(p lora.Params) (Backend, error) {
		return newSlotshift(p)
	})
}

// slotshiftBackend implements SS5G-style slot-shift recovery (El Rachkidy et
// al., PAPERS.md): when transmitters miss the nominal slot boundary by large
// fractions of a symbol, a decode aligned to the slot sees their frames
// straddling window edges and loses them — but re-running the decoder with
// the capture shifted by half-symbol steps re-aligns one straggler at a
// time. The backend decodes at the nominal boundary first and, whenever the
// collision is not fully resolved, retries at shifts of N/2 and N samples,
// merging newly recovered payloads into the result. Captures carry at least
// one symbol of slack past the frame (the synthesizer and the gateway both
// guarantee it), so the shifted decodes never run short.
type slotshiftBackend struct {
	dec   *choir.Decoder
	retry choir.Result // scratch for shifted decodes once the primary succeeded
}

var _ Backend = (*slotshiftBackend)(nil)

func newSlotshift(p lora.Params) (*slotshiftBackend, error) {
	dec, err := choir.New(choir.DefaultConfig(p))
	if err != nil {
		return nil, err
	}
	return &slotshiftBackend{dec: dec}, nil
}

func (b *slotshiftBackend) Name() string        { return "slotshift" }
func (b *slotshiftBackend) Params() lora.Params { return b.dec.Config().LoRa }
func (b *slotshiftBackend) Reseed(seed uint64)  {}

func (b *slotshiftBackend) DecodeCtxInto(ctx context.Context, res *choir.Result, samples []complex128, payloadLen int) error {
	p := b.dec.Config().LoRa
	n := p.N()
	need := p.FrameSamples(payloadLen)

	err := b.dec.DecodeCtxInto(ctx, res, samples, payloadLen)
	if err != nil && !errors.Is(err, choir.ErrNoUsers) {
		// Cancellation, bad IQ, short signal: shifting the same capture
		// cannot change the verdict (and canceled decodes must not retry).
		return err
	}
	ok := err == nil
	if ok && allDecoded(res) {
		return nil
	}
	for _, shift := range []int{n / 2, n} {
		if len(samples)-shift < need {
			break
		}
		if !ok {
			// Nothing recovered yet: decode straight into the caller's
			// Result so a successful shift IS the result.
			e := b.dec.DecodeCtxInto(ctx, res, samples[shift:], payloadLen)
			switch {
			case e == nil:
				ok = true
			case errors.Is(e, choir.ErrNoUsers):
				continue
			default:
				return e
			}
		} else {
			e := b.dec.DecodeCtxInto(ctx, &b.retry, samples[shift:], payloadLen)
			switch {
			case e == nil:
				mergeNewPayloads(res, &b.retry)
			case errors.Is(e, choir.ErrNoUsers):
				continue
			default:
				return e
			}
		}
		if allDecoded(res) {
			break
		}
	}
	if !ok {
		return fmt.Errorf("slotshift: no users at any slot shift: %w", err)
	}
	return nil
}

// allDecoded reports whether every tracked user's payload decoded.
func allDecoded(res *choir.Result) bool {
	for _, u := range res.Users {
		if !u.Decoded() {
			return false
		}
	}
	return len(res.Users) > 0
}

// mergeNewPayloads appends deep copies of retry's decoded users whose
// payloads are not already present in res. Copies are required: retry's User
// structs are scratch recycled by the next shifted decode.
func mergeNewPayloads(res, retry *choir.Result) {
	for _, u := range retry.Users {
		if !u.Decoded() || hasPayload(res, u.Payload) {
			continue
		}
		cp := &choir.User{
			Offset:        u.Offset,
			Gain:          u.Gain,
			Symbols:       append([]int(nil), u.Symbols...),
			Payload:       append([]byte(nil), u.Payload...),
			WindowOffsets: append([]float64(nil), u.WindowOffsets...),
		}
		res.Users = append(res.Users, cp)
	}
}

func hasPayload(res *choir.Result, payload []byte) bool {
	for _, u := range res.Users {
		if u.Decoded() && bytes.Equal(u.Payload, payload) {
			return true
		}
	}
	return false
}
