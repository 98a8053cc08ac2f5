package choir

import "context"

// AvailFunc blocks until at least need samples of a streaming frame are
// present in the buffer handed to DecodeIncrementalCtxInto. It returns nil
// once buf[:need] is fully written and stable (the writer must establish a
// happens-before edge — e.g. a mutex or channel — between writing the
// samples and releasing the waiter), or an error if the stream ended before
// reaching need samples or ctx fired while waiting.
type AvailFunc func(ctx context.Context, need int) error

// DecodeIncrementalCtxInto decodes a frame whose samples are still arriving:
// it waits (via avail) only for the preamble prefix before starting user
// detection, overlapping the whole preamble stage with the network delivering
// the data symbols, then waits for the full frame and finishes exactly like
// DecodeCtxInto.
//
// buf is the frame's full backing array (len(buf) = the frame's declared
// sample count); the writer fills it front to back while the decode runs and
// signals progress through avail. The result — including every error case —
// is bit-identical to DecodeCtxInto on the completed buffer, because both run
// the one pipeline (see decode). A nil avail means every sample is already
// present.
func (d *Decoder) DecodeIncrementalCtxInto(ctx context.Context, res *Result, buf []complex128, payloadLen int, avail AvailFunc) error {
	return d.decode(ctx, res, buf, payloadLen, avail)
}

// PreambleSamples returns how many leading samples of a frame the decoder
// needs before incremental decoding can begin useful work (the preamble
// prefix the early scan reads).
func (d *Decoder) PreambleSamples() int {
	return d.cfg.LoRa.PreambleLen * d.n
}
