package backend_test

import (
	"context"
	"sync"
	"testing"

	"choir/internal/backend"
	"choir/internal/choir"
)

// TestChoirBackendStreamsLikeSerial: a Choir-pipeline backend's decoder
// (backend.Decoder) decodes a frame whose samples are still arriving
// bit-identically to the serial decode of the completed frame.
func TestChoirBackendStreamsLikeSerial(t *testing.T) {
	h, samples := loadFixture(t, "collide2_sf7")
	b := backend.MustNew("choir", h.Params)
	dec := backend.Decoder(b)

	want := &choir.Result{}
	if err := b.DecodeCtxInto(context.Background(), want, samples, h.PayloadLen); err != nil {
		t.Fatalf("serial: %v", err)
	}

	// Stream the same frame in two installments: preamble prefix, then rest.
	buf := make([]complex128, len(samples))
	var mu sync.Mutex
	have := 0
	fill := func(n int) {
		mu.Lock()
		copy(buf[have:n], samples[have:n])
		have = n
		mu.Unlock()
	}
	prefix := dec.PreambleSamples()
	fill(prefix)
	avail := func(ctx context.Context, need int) error {
		mu.Lock()
		ok := have >= need
		mu.Unlock()
		if !ok {
			fill(len(buf)) // deliver the remainder on first demand
		}
		return nil
	}
	got := &choir.Result{}
	if err := dec.DecodeIncrementalCtxInto(context.Background(), got, buf, h.PayloadLen, avail); err != nil {
		t.Fatalf("stream: %v", err)
	}
	sameResult(t, "stream", got, want)
}
