package backend

import (
	"context"

	"choir/internal/choir"
)

// BatchItem is one frame of a batched decode: the inputs a serial caller
// would pass to Reseed + DecodeCtxInto, plus the per-item outputs. Res must
// be non-nil; Err receives that item's decode error (nil on success).
type BatchItem struct {
	Samples    []complex128
	PayloadLen int
	Seed       uint64
	Res        *choir.Result
	Err        error
}

// StreamDecoder is the optional capability a Backend implements when it can
// decode a frame whose samples are still arriving: buf is the frame's full
// backing array and avail blocks until a prefix is complete (the
// choir.AvailFunc contract). Results are bit-identical to DecodeCtxInto on
// the completed buffer.
type StreamDecoder interface {
	Backend
	DecodeStreamCtxInto(ctx context.Context, res *choir.Result, buf []complex128, payloadLen int, avail choir.AvailFunc) error
}

// DecodeBatch decodes every item in order, filling Res/Err in place: item i
// gets exactly Reseed(items[i].Seed) followed by DecodeCtxInto, so b keeps
// its plans, tables and scratch hot across the run and its state afterwards
// is as if the last item had been decoded alone. The returned error is
// reserved for a fired ctx, checked between items (the in-progress item
// observes it through the backend's own stage-boundary polls and records its
// typed error); per-item decode failures land in items[i].Err and do not
// stop the batch. Items not reached keep whatever Err the caller passed in
// and their Res untouched — callers that must locate the stop point pre-mark
// every item's Err with a sentinel and look for it afterwards.
func DecodeBatch(ctx context.Context, b Backend, items []BatchItem) error {
	for i := range items {
		it := &items[i]
		if err := ctx.Err(); err != nil {
			return err
		}
		b.Reseed(it.Seed)
		it.Err = b.DecodeCtxInto(ctx, it.Res, it.Samples, it.PayloadLen)
	}
	return nil
}

var _ StreamDecoder = (*decoderBackend)(nil)

// DecodeStreamCtxInto implements StreamDecoder by forwarding to the
// decoder's incremental entry point.
func (b *decoderBackend) DecodeStreamCtxInto(ctx context.Context, res *choir.Result, buf []complex128, payloadLen int, avail choir.AvailFunc) error {
	return b.dec.DecodeIncrementalCtxInto(ctx, res, buf, payloadLen, avail)
}
