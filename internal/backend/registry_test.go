package backend_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"choir/internal/backend"
	"choir/internal/lora"
	"choir/internal/trace"
)

// loadGolden reads one golden-trace fixture from the choir package's shared
// fixture directory.
func loadGolden(t *testing.T, name string) (trace.Header, []complex128) {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "choir", "testdata", "golden", name+".iq"))
	if err != nil {
		t.Fatalf("missing fixture (run go test ./internal/choir -run TestGoldenTraces -update): %v", err)
	}
	defer f.Close()
	h, samples, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
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
		if !backend.Registered(name) {
			t.Errorf("Registered(%q) = false", name)
		}
	}
	if backend.Registered("nope") {
		t.Error(`Registered("nope") = true`)
	}
	if _, err := backend.New("nope", lora.DefaultParams()); err == nil {
		t.Error(`New("nope") succeeded`)
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
