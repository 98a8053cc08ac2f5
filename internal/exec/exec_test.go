package exec_test

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"choir/internal/backend"
	"choir/internal/exec"
	"choir/internal/lora"
	"choir/internal/sim"
)

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const n = 57
		counts := make([]atomic.Int32, n)
		if err := exec.NewPool(workers).ForEach(context.Background(), n, func(i int) { counts[i].Add(1) }); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachEmptyAndNegative(t *testing.T) {
	ran := false
	p := exec.NewPool(4)
	err0 := p.ForEach(context.Background(), 0, func(int) { ran = true })
	errNeg := p.ForEach(context.Background(), -3, func(int) { ran = true })
	if ran || err0 != nil || errNeg != nil {
		t.Error("task ran for empty fan-out")
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic was swallowed")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "boom") {
			t.Errorf("panic payload %v lost the cause", r)
		}
	}()
	_ = exec.NewPool(4).ForEach(context.Background(), 16, func(i int) { // panics before returning
		if i == 7 {
			panic("boom")
		}
	})
}

func TestMapCollectsInOrder(t *testing.T) {
	out, err := exec.Map(context.Background(), exec.NewPool(8), 64, func(i int) int { return i * i })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestDeriveSeedContract(t *testing.T) {
	if exec.DeriveSeed(1, 2, 3) != exec.DeriveSeed(1, 2, 3) {
		t.Error("not deterministic")
	}
	if exec.DeriveSeed(1, 2, 3) == exec.DeriveSeed(1, 3, 2) {
		t.Error("dimension order ignored")
	}
	if exec.DeriveSeed(1, 2) == exec.DeriveSeed(2, 2) {
		t.Error("base ignored")
	}
	if exec.DeriveSeed(5) == 5 {
		t.Error("base passed through unmixed")
	}
	// The arithmetic scheme this replaces collided across dimensions
	// (k*1000+trial); the derived scheme must keep a dense grid distinct.
	seen := map[uint64]bool{}
	for k := uint64(0); k < 50; k++ {
		for trial := uint64(0); trial < 50; trial++ {
			s := exec.DeriveSeed(7, k, trial)
			if seen[s] {
				t.Fatalf("seed collision at (%d,%d)", k, trial)
			}
			seen[s] = true
		}
	}
}

func TestSeedChainEquivalence(t *testing.T) {
	// Start/Mix must fold to exactly DeriveSeed for every arity — the
	// city-scale engine's allocation-free draws rely on the identity.
	for base := uint64(0); base < 5; base++ {
		dims := []uint64{9, 0, 1 << 40, 3, base}
		h := exec.Start(base)
		for n, d := range dims {
			if want := exec.DeriveSeed(base, dims[:n]...); h != want {
				t.Fatalf("chain(%d dims) = %#x, DeriveSeed = %#x", n, h, want)
			}
			h = exec.Mix(h, d)
		}
		if want := exec.DeriveSeed(base, dims...); h != want {
			t.Fatalf("chain(full) = %#x, DeriveSeed = %#x", h, want)
		}
	}
}

// The TestDecoderPool* tests pin the decoder-ownership half of the trial
// engine's determinism contract (the seed half is DeriveSeed, above). The
// pool itself is backend.Pool — the one decoder pool, which this package's
// fan-out is always paired with.

func mustDecoderPool(t *testing.T, p lora.Params) *backend.Pool {
	t.Helper()
	pool, err := backend.NewPool("choir", p)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

func TestDecoderPoolRejectsBadConfig(t *testing.T) {
	p := lora.DefaultParams()
	p.SF = 3
	if _, err := backend.NewPool("choir", p); err == nil {
		t.Error("invalid PHY accepted")
	}
	if _, err := backend.NewPool("no-such-backend", lora.DefaultParams()); err == nil {
		t.Error("unregistered backend accepted")
	}
}

func TestDecoderPoolReusesInstances(t *testing.T) {
	p := mustDecoderPool(t, lora.DefaultParams())
	d1 := p.Get()
	p.Put(d1)
	if d2 := p.Get(); d2 != d1 {
		t.Error("pooled instance not reused")
	}
}

// TestPooledDecoderMatchesFresh checks the ownership side of the
// determinism contract: a pooled decoder that already served other trials
// must decode exactly like a freshly built one, because a decode reads
// nothing an earlier decode left behind.
func TestPooledDecoderMatchesFresh(t *testing.T) {
	ctx := context.Background()
	params := lora.DefaultParams()
	sc := sim.Scenario{Params: params, PayloadLen: 8, SNRsDB: []float64{20, 16}, Seed: 9}
	sig, _ := sc.Synthesize()

	fresh := backend.MustNew("choir", params)
	want, err := backend.Decode(ctx, fresh, sig, 8)
	if err != nil {
		t.Fatal(err)
	}

	p := mustDecoderPool(t, params)
	// Burn state on an unrelated trial, then return the instance.
	d := p.Get()
	other := sim.Scenario{Params: params, PayloadLen: 8, SNRsDB: []float64{18}, Seed: 3}
	osig, _ := other.Synthesize()
	if _, err := backend.Decode(ctx, d, osig, 8); err != nil {
		t.Fatal(err)
	}
	p.Put(d)

	d = p.Get()
	got, err := backend.Decode(ctx, d, sig, 8)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(d)

	if len(got.Users) != len(want.Users) {
		t.Fatalf("pooled decode found %d users, fresh found %d", len(got.Users), len(want.Users))
	}
	for i := range want.Users {
		if got.Users[i].Offset != want.Users[i].Offset {
			t.Errorf("user %d offset %v != %v", i, got.Users[i].Offset, want.Users[i].Offset)
		}
		if string(got.Users[i].Payload) != string(want.Users[i].Payload) {
			t.Errorf("user %d payload differs", i)
		}
	}
}

// TestDecoderPoolConcurrent hammers the pool from many goroutines so the
// race detector can see checkout/checkin; every trial must decode its own
// scenario correctly regardless of interleaving.
func TestDecoderPoolConcurrent(t *testing.T) {
	params := lora.DefaultParams()
	p := mustDecoderPool(t, params)
	var failures atomic.Int32
	err := exec.NewPool(8).ForEach(context.Background(), 16, func(i int) {
		seed := exec.DeriveSeed(77, uint64(i))
		sc := sim.Scenario{Params: params, PayloadLen: 8, SNRsDB: []float64{22, 18}, Seed: seed}
		b := p.Get()
		defer p.Put(b)
		if r, n := sc.DecodeWith(backend.Decoder(b)); n != 2 || r == 0 {
			failures.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if f := failures.Load(); f > 2 {
		t.Errorf("%d/16 concurrent trials failed to recover anything", f)
	}
}
