package backend_test

import (
	"context"
	"sync"
	"testing"

	"choir/internal/backend"
	"choir/internal/choir"
)

// TestChoirBackendImplementsCapabilities: the Choir-pipeline backends
// advertise the streaming capability, and it is bit-identical to the serial
// decode of the completed frame.
func TestChoirBackendImplementsCapabilities(t *testing.T) {
	h, samples := loadFixture(t, "collide2_sf7")
	b := backend.MustNew("choir", h.Params)
	sd, ok := b.(backend.StreamDecoder)
	if !ok {
		t.Fatal("choir backend does not implement StreamDecoder")
	}

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
	prefix := backend.Decoder(b).PreambleSamples()
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
	if err := sd.DecodeStreamCtxInto(context.Background(), got, buf, h.PayloadLen, avail); err != nil {
		t.Fatalf("stream: %v", err)
	}
	sameResult(t, "stream", got, want)
}
