package backend_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"choir/internal/backend"
	"choir/internal/choir"
	"choir/internal/obs"
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

// sameResult compares two decode results bit for bit, every User field
// included.
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
		if math.Float64bits(real(g.Gain)) != math.Float64bits(real(w.Gain)) ||
			math.Float64bits(imag(g.Gain)) != math.Float64bits(imag(w.Gain)) {
			t.Errorf("%s user %d: gain %v != %v", label, i, g.Gain, w.Gain)
		}
		if !slices.Equal(g.Symbols, w.Symbols) {
			t.Errorf("%s user %d: symbols %v != %v", label, i, g.Symbols, w.Symbols)
		}
		if len(g.WindowOffsets) != len(w.WindowOffsets) {
			t.Errorf("%s user %d: %d window offsets, want %d", label, i, len(g.WindowOffsets), len(w.WindowOffsets))
		} else {
			for k := range w.WindowOffsets {
				if math.Float64bits(g.WindowOffsets[k]) != math.Float64bits(w.WindowOffsets[k]) {
					t.Errorf("%s user %d: window offset %d: %v != %v", label, i, k, g.WindowOffsets[k], w.WindowOffsets[k])
					break
				}
			}
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

// TestBackendDispatchZeroAllocs is TestDecodeSteadyStateZeroAllocs driven
// through the Backend interface: registry construction, the interface call
// and context polling must not put the steady-state decode back on the heap.
func TestBackendDispatchZeroAllocs(t *testing.T) {
	h, samples := loadFixture(t, "collide2_sf7")
	be := backend.MustNew("choir", h.Params)
	res := &choir.Result{}
	ctx := context.Background()
	decodeOnce := func() {
		if err := be.DecodeCtxInto(ctx, res, samples, h.PayloadLen); err != nil {
			t.Fatal(err)
		}
	}
	decodeOnce()
	decodeOnce()
	for _, u := range res.Users {
		if !u.Decoded() {
			t.Fatalf("warm-up decode failed: %v", u.Err)
		}
	}
	if allocs := testing.AllocsPerRun(5, decodeOnce); allocs != 0 {
		t.Fatalf("steady-state DecodeCtxInto through Backend allocates %.1f times/op, want 0", allocs)
	}
}

// TestPooledInstanceMatchesFreshForEveryBackend pins the determinism contract
// the gateway's pooled decode path and journal replay both rest on: a
// replayed frame decodes on a cold instance in a new process and must match
// what the dead process's warm one would have produced. For every registered
// backend, a good frame, a malformed one and a good one again through one
// pooled instance equal each frame on a fresh instance —
// errors by text, offsets by bit pattern — with metrics recording off and on.
// The pooled instance decodes at GOMAXPROCS 1, 2 and 4 (a Choir-pipeline
// decode fans its window loops out over min(GOMAXPROCS, windows) − 1 helper
// lanes), the fresh one at 1.
func TestPooledInstanceMatchesFreshForEveryBackend(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("metrics unexpectedly enabled at test start")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	h, samples := loadFixture(t, "collide2_sf7")
	frames := [][]complex128{samples, samples[:10], samples}
	ctx := context.Background()
	for _, name := range backend.Names() {
		t.Run(name, func(t *testing.T) {
			check := func(metrics string, procs int) {
				pool, err := backend.NewPool(name, h.Params)
				if err != nil {
					t.Fatal(err)
				}
				var first backend.Backend
				for i, frame := range frames {
					label := fmt.Sprintf("%s GOMAXPROCS %d frame %d", metrics, procs, i)
					warm := pool.Get()
					if first == nil {
						first = warm
					} else if warm != first {
						t.Fatalf("%s: pool handed out a second instance", label)
					}
					runtime.GOMAXPROCS(procs)
					got := &choir.Result{}
					gotErr := warm.DecodeCtxInto(ctx, got, frame, h.PayloadLen)
					pool.Put(warm)

					runtime.GOMAXPROCS(1)
					cold := backend.MustNew(name, h.Params)
					want := &choir.Result{}
					wantErr := cold.DecodeCtxInto(ctx, want, frame, h.PayloadLen)

					sameErr(t, label, gotErr, wantErr)
					if malformed := i == 1; malformed != (wantErr != nil) {
						t.Errorf("%s: err %v on a frame with malformed=%v", label, wantErr, malformed)
					}
					if wantErr == nil {
						sameResult(t, label, got, want)
					}
				}
			}
			for _, procs := range []int{1, 2, 4} {
				check("metrics-off", procs)
			}
			obs.Enable()
			defer obs.Disable()
			for _, procs := range []int{1, 2, 4} {
				check("metrics-on", procs)
			}
		})
	}
}
