package backend_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"choir/internal/backend"
	"choir/internal/choir"
	"choir/internal/lora"
	"choir/internal/sim"
	"choir/internal/trace"
)

// loadGolden reads one golden-trace fixture from the choir package's shared
// fixture directory.
func loadGolden(t *testing.T, name string) (trace.Header, []complex128) {
	t.Helper()
	h, samples, err := trace.ReadFile(filepath.Join("..", "choir", "testdata", "golden", name+".iq"))
	if err != nil {
		t.Fatalf("reading fixture (run go test ./internal/choir -run TestGoldenTraces -update to regenerate): %v", err)
	}
	return h, samples
}

func TestRegistryNames(t *testing.T) {
	names := backend.Names()
	want := []string{"choir", "relaxed", "slotshift", "strongest", "superposed"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("registered backends = %v, want %v", names, want)
	}
	for _, name := range want {
		if _, err := backend.NewPool(name); err != nil {
			t.Errorf("NewPool(%q): %v", name, err)
		}
	}
	_, newErr := backend.New("nope", lora.DefaultParams())
	if newErr == nil {
		t.Fatal(`New("nope") succeeded`)
	}
	if _, err := backend.NewPool("nope"); err == nil || err.Error() != newErr.Error() {
		t.Errorf(`NewPool("nope") = %v, want New's error %v`, err, newErr)
	}
}

// TestBackendsRoundTripCleanCollision is the registry's contract test: every
// registered backend must recover at least one ground-truth payload from the
// clean two-user golden fixture. Backends differ in how much of a collision
// they salvage — strongest tracks one user by design — but an algorithm that
// cannot decode a clean equal-power two-user collision at comfortable SNR
// has no business in the registry.
func TestBackendsRoundTripCleanCollision(t *testing.T) {
	h, samples := loadGolden(t, "collide2_sf7")
	truth := map[string]bool{}
	for _, u := range h.Users {
		truth[u] = true
	}
	for _, name := range backend.Names() {
		t.Run(name, func(t *testing.T) {
			b, err := backend.New(name, h.Params)
			if err != nil {
				t.Fatal(err)
			}
			if got := b.Name(); got != name {
				t.Errorf("Name() = %q, want %q", got, name)
			}
			res, err := backend.Decode(context.Background(), b, samples, h.PayloadLen)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			recovered := 0
			for _, p := range res.DecodedPayloads() {
				if truth[fmt.Sprintf("%x", p)] {
					recovered++
				}
			}
			if recovered == 0 {
				t.Fatalf("no ground-truth payload recovered (%d users tracked, %d payloads decoded)",
					len(res.Users), len(res.DecodedPayloads()))
			}
			t.Logf("%s: %d/%d ground-truth payloads", name, recovered, len(truth))
		})
	}
}

// TestEveryBackendDecodesZeroLengthFrame: a frame may carry 0 payload bytes,
// and a clean single-user capture of one decodes on every backend to one
// user whose empty payload counts as decoded.
func TestEveryBackendDecodesZeroLengthFrame(t *testing.T) {
	sc := sim.Scenario{Params: lora.DefaultParams(), PayloadLen: 0, SNRsDB: []float64{20}, Seed: 1}
	samples, _ := sc.Synthesize()
	for _, name := range backend.Names() {
		t.Run(name, func(t *testing.T) {
			res, err := backend.Decode(context.Background(), backend.MustNew(name, sc.Params), samples, 0)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if len(res.Users) != 1 || !res.Users[0].Decoded() || len(res.Users[0].Payload) != 0 {
				for _, u := range res.Users {
					t.Logf("user at %.2f: payload %#v, err %v", u.Offset, u.Payload, u.Err)
				}
				t.Fatalf("%d users, want 1 decoded with an empty payload", len(res.Users))
			}
		})
	}
}

// TestEveryBackendTypesFiredContext: whatever algorithm decodes, a context
// that has already fired fails the decode inside the taxonomy — ErrCanceled
// or ErrDeadline, still wrapping the context's own error.
func TestEveryBackendTypesFiredContext(t *testing.T) {
	h, samples := loadGolden(t, "collide2_sf7")
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	for _, name := range backend.Names() {
		b := backend.MustNew(name, h.Params)
		for _, tc := range []struct {
			ctx          context.Context
			typed, cause error
		}{
			{canceled, choir.ErrCanceled, context.Canceled},
			{expired, choir.ErrDeadline, context.DeadlineExceeded},
		} {
			_, err := backend.Decode(tc.ctx, b, samples, h.PayloadLen)
			if !errors.Is(err, tc.typed) || !errors.Is(err, tc.cause) {
				t.Errorf("%s: err = %v, want %v wrapping %v", name, err, tc.typed, tc.cause)
			}
		}
	}
}
