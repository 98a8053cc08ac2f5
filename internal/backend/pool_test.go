package backend_test

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"choir/internal/backend"
	"choir/internal/choir"
	"choir/internal/lora"
	"choir/internal/obs"
	"choir/internal/trace"
)

func loadFixture(t testing.TB, name string) (trace.Header, []complex128) {
	t.Helper()
	h, samples, err := trace.ReadFile(filepath.Join("..", "choir", "testdata", "golden", name+".iq"))
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
// backend, frames whose user count (1, 2) and data-window count (16, 8) rise
// and fall, a malformed one and the first one again, through one pooled
// instance, equal each frame on a fresh instance — errors by text, offsets by
// bit pattern — with metrics recording off and on.
// The pooled instance decodes at GOMAXPROCS 1, 2 and 4 (a Choir-pipeline
// decode fans its window loops out over min(GOMAXPROCS, windows) − 1 helper
// lanes), the fresh one at 1.
func TestPooledInstanceMatchesFreshForEveryBackend(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("metrics unexpectedly enabled at test start")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	h, single := loadFixture(t, "single_sf7")
	_, collide2 := loadFixture(t, "collide2_sf7")
	_, interferer := loadFixture(t, "fault_interferer_sf7")
	frames := []struct {
		samples    []complex128
		payloadLen int // 1 byte is 8 data windows, 4 bytes 16
		malformed  bool
	}{
		{single, h.PayloadLen, false},
		{collide2, h.PayloadLen, false},
		{interferer, 1, false},
		{collide2[:10], h.PayloadLen, true},
		{single, h.PayloadLen, false},
	}
	ctx := context.Background()
	for _, name := range backend.Names() {
		t.Run(name, func(t *testing.T) {
			check := func(metrics string, procs int) {
				pool, err := backend.NewPool(name)
				if err != nil {
					t.Fatal(err)
				}
				var first backend.Backend
				for i, frame := range frames {
					label := fmt.Sprintf("%s GOMAXPROCS %d frame %d", metrics, procs, i)
					warm, err := pool.Get(h.Params)
					if err != nil {
						t.Fatal(err)
					}
					if first == nil {
						first = warm
					} else if warm != first {
						t.Fatalf("%s: pool handed out a second instance", label)
					}
					runtime.GOMAXPROCS(procs)
					got := &choir.Result{}
					gotErr := warm.DecodeCtxInto(ctx, got, frame.samples, frame.payloadLen)
					pool.Put(h.Params, warm)

					runtime.GOMAXPROCS(1)
					cold := backend.MustNew(name, h.Params)
					want := &choir.Result{}
					wantErr := cold.DecodeCtxInto(ctx, want, frame.samples, frame.payloadLen)

					sameErr(t, label, gotErr, wantErr)
					if frame.malformed != (wantErr != nil) {
						t.Errorf("%s: err %v on a frame with malformed=%v", label, wantErr, frame.malformed)
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

func mustPool(t *testing.T, name string) *backend.Pool {
	t.Helper()
	pool, err := backend.NewPool(name)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

func mustGet(t *testing.T, pool *backend.Pool, p lora.Params) backend.Backend {
	t.Helper()
	b, err := pool.Get(p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDecoderPoolRejectsBadConfig: an unknown name fails at NewPool, an
// invalid PHY at the Get that would build for it.
func TestDecoderPoolRejectsBadConfig(t *testing.T) {
	if _, err := backend.NewPool("no-such-backend"); err == nil {
		t.Error("unregistered backend accepted")
	}
	p := lora.DefaultParams()
	p.SF = 3
	if _, err := mustPool(t, "choir").Get(p); err == nil {
		t.Error("invalid PHY accepted")
	}
}

func TestDecoderPoolReusesInstances(t *testing.T) {
	pool, p := mustPool(t, "choir"), lora.DefaultParams()
	d1 := mustGet(t, pool, p)
	pool.Put(p, d1)
	if d2 := mustGet(t, pool, p); d2 != d1 {
		t.Error("pooled instance not reused")
	}
}

// TestPoolLendsByPHY: an instance is bound to the PHY it was built for. One
// Put for SF7 is never lent to Get(SF8), and the SF8 instance, after an
// unrelated SF8 capture, decodes an SF8 capture exactly as a fresh one does.
func TestPoolLendsByPHY(t *testing.T) {
	ctx := context.Background()
	h7, single := loadFixture(t, "single_sf7")
	h8, collide3 := loadFixture(t, "collide3_sf8")
	hDrift, drift := loadFixture(t, "fault_drift_sf8")
	if h7.Params == h8.Params || hDrift.Params != h8.Params {
		t.Fatalf("fixtures at %v, %v, %v: want two SF7-vs-SF8 PHYs", h7.Params.SF, h8.Params.SF, hDrift.Params.SF)
	}
	pool := mustPool(t, "choir")

	b7 := mustGet(t, pool, h7.Params)
	if _, err := backend.Decode(ctx, b7, single, h7.PayloadLen); err != nil {
		t.Fatal(err)
	}
	pool.Put(h7.Params, b7)

	b8 := mustGet(t, pool, h8.Params)
	if b8 == b7 {
		t.Fatal("Get(SF8) lent the instance Put for SF7")
	}
	if _, err := backend.Decode(ctx, b8, drift, hDrift.PayloadLen); err != nil {
		t.Fatal(err)
	}
	got, err := backend.Decode(ctx, b8, collide3, h8.PayloadLen)
	if err != nil {
		t.Fatal(err)
	}
	want, err := backend.Decode(ctx, backend.MustNew("choir", h8.Params), collide3, h8.PayloadLen)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "pooled SF8", got, want)
	pool.Put(h8.Params, b8)

	if b := mustGet(t, pool, h8.Params); b != b8 {
		t.Error("Get(SF8) did not reuse the SF8 instance")
	}
	if b := mustGet(t, pool, h7.Params); b != b7 {
		t.Error("Get(SF7) did not reuse the SF7 instance")
	}
}

// TestDecoderPoolConcurrent hammers one pool from many goroutines, over
// captures at two PHYs, so the race detector sees checkout and checkin at
// every width; every decode must equal a fresh instance's, whichever
// instance it borrowed.
func TestDecoderPoolConcurrent(t *testing.T) {
	type capture struct {
		h       trace.Header
		samples []complex128
		want    *choir.Result
	}
	var captures []capture
	for _, name := range []string{"single_sf7", "collide2_sf7", "collide3_sf8", "fault_drift_sf8"} {
		h, samples := loadFixture(t, name)
		want, err := backend.Decode(context.Background(), backend.MustNew("choir", h.Params), samples, h.PayloadLen)
		if err != nil {
			t.Fatal(err)
		}
		captures = append(captures, capture{h, samples, want})
	}
	pool := mustPool(t, "choir")
	const n = 16
	got := make([]*choir.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := captures[i%len(captures)]
			b, err := pool.Get(c.h.Params)
			if err != nil {
				errs[i] = err
				return
			}
			defer pool.Put(c.h.Params, b)
			got[i], errs[i] = backend.Decode(context.Background(), b, c.samples, c.h.PayloadLen)
		}()
	}
	wg.Wait()
	for i := range n {
		if errs[i] != nil {
			t.Fatalf("decode %d: %v", i, errs[i])
		}
		sameResult(t, fmt.Sprintf("decode %d", i), got[i], captures[i%len(captures)].want)
	}
}
