package backend

import (
	"context"

	"choir/internal/choir"
)

// StreamDecoder is the optional capability a Backend implements when it can
// decode a frame whose samples are still arriving: buf is the frame's full
// backing array and avail blocks until a prefix is complete (the
// choir.AvailFunc contract). Results are bit-identical to DecodeCtxInto on
// the completed buffer.
type StreamDecoder interface {
	Backend
	DecodeStreamCtxInto(ctx context.Context, res *choir.Result, buf []complex128, payloadLen int, avail choir.AvailFunc) error
}

var _ StreamDecoder = (*decoderBackend)(nil)

// DecodeStreamCtxInto implements StreamDecoder by forwarding to the
// decoder's incremental entry point.
func (b *decoderBackend) DecodeStreamCtxInto(ctx context.Context, res *choir.Result, buf []complex128, payloadLen int, avail choir.AvailFunc) error {
	return b.dec.DecodeIncrementalCtxInto(ctx, res, buf, payloadLen, avail)
}
