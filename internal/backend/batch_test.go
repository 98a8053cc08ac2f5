package backend_test

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"choir/internal/backend"
	"choir/internal/choir"
	"choir/internal/trace"
)

func loadFixture(t *testing.T, name string) (trace.Header, []complex128) {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "choir", "testdata", "golden", name+".iq"))
	if err != nil {
		t.Fatalf("missing fixture: %v", err)
	}
	defer f.Close()
	h, samples, err := trace.Read(f)
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}
	return h, samples
}

func sameResult(t *testing.T, label string, got, want *choir.Result) {
	t.Helper()
	if len(got.Users) != len(want.Users) {
		t.Fatalf("%s: %d users, want %d", label, len(got.Users), len(want.Users))
	}
	for i := range want.Users {
		g, w := got.Users[i], want.Users[i]
		if math.Float64bits(g.Offset) != math.Float64bits(w.Offset) {
			t.Errorf("%s user %d: offset %v != %v", label, i, g.Offset, w.Offset)
		}
		if string(g.Payload) != string(w.Payload) {
			t.Errorf("%s user %d: payload %x != %x", label, i, g.Payload, w.Payload)
		}
		if (g.Err == nil) != (w.Err == nil) || (g.Err != nil && g.Err.Error() != w.Err.Error()) {
			t.Errorf("%s user %d: err %v != %v", label, i, g.Err, w.Err)
		}
	}
}

func sameErr(t *testing.T, label string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Errorf("%s: err %v, want %v", label, got, want)
	}
}

// TestDecodeBatchMatchesSerialForEveryBackend pins DecodeBatch's contract
// registry-wide: for every registered backend, a batch of frames produces
// exactly the Res/Err sequence a caller's own Reseed+DecodeCtxInto calls
// produce, and a malformed frame fails per-item without stopping the batch.
func TestDecodeBatchMatchesSerialForEveryBackend(t *testing.T) {
	h, samples := loadFixture(t, "collide2_sf7")
	short := samples[:10]
	for _, name := range backend.Names() {
		t.Run(name, func(t *testing.T) {
			mk := func() []backend.BatchItem {
				return []backend.BatchItem{
					{Samples: samples, PayloadLen: h.PayloadLen, Seed: 101, Res: &choir.Result{}},
					{Samples: short, PayloadLen: h.PayloadLen, Seed: 102, Res: &choir.Result{}},
					{Samples: samples, PayloadLen: h.PayloadLen, Seed: 103, Res: &choir.Result{}},
				}
			}
			serialB := backend.MustNew(name, h.Params)
			want := mk()
			for i := range want {
				serialB.Reseed(want[i].Seed)
				want[i].Err = serialB.DecodeCtxInto(context.Background(), want[i].Res, want[i].Samples, want[i].PayloadLen)
			}

			batchB := backend.MustNew(name, h.Params)
			got := mk()
			if err := backend.DecodeBatch(context.Background(), batchB, got); err != nil {
				t.Fatalf("DecodeBatch: %v", err)
			}
			for i := range want {
				sameErr(t, name, got[i].Err, want[i].Err)
				if want[i].Err == nil {
					sameResult(t, name, got[i].Res, want[i].Res)
				}
			}
		})
	}
}

// TestDecodeBatchCanceledContextStopsBetweenItems: a fired context surfaces
// as the batch-level error and leaves undone items untouched.
func TestDecodeBatchCanceledContextStopsBetweenItems(t *testing.T) {
	h, samples := loadFixture(t, "single_sf7")
	b := backend.MustNew("choir", h.Params)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items := []backend.BatchItem{
		{Samples: samples, PayloadLen: h.PayloadLen, Seed: 1, Res: &choir.Result{}},
	}
	err := backend.DecodeBatch(ctx, b, items)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if items[0].Err != nil || len(items[0].Res.Users) != 0 {
		t.Fatalf("canceled batch touched item: err=%v users=%d", items[0].Err, len(items[0].Res.Users))
	}
}

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
	b.Reseed(choir.DefaultConfig(h.Params).Seed)
	got := &choir.Result{}
	if err := sd.DecodeStreamCtxInto(context.Background(), got, buf, h.PayloadLen, avail); err != nil {
		t.Fatalf("stream: %v", err)
	}
	sameResult(t, "stream", got, want)
}
