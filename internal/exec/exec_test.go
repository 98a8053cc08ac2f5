package exec_test

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"choir/internal/exec"
)

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		const n = 57
		counts := make([]atomic.Int32, n)
		if err := exec.ForEach(context.Background(), n, func(i int) { counts[i].Add(1) }); err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Errorf("GOMAXPROCS %d: index %d ran %d times", procs, i, c)
			}
		}
	}
}

func TestForEachEmptyAndNegative(t *testing.T) {
	ran := false
	err0 := exec.ForEach(context.Background(), 0, func(int) { ran = true })
	errNeg := exec.ForEach(context.Background(), -3, func(int) { ran = true })
	if ran || err0 != nil || errNeg != nil {
		t.Error("task ran for empty fan-out")
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic was swallowed")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "boom") {
			t.Errorf("panic payload %v lost the cause", r)
		}
	}()
	_ = exec.ForEach(context.Background(), 16, func(i int) { // panics before returning
		if i == 7 {
			panic("boom")
		}
	})
}

func TestMapCollectsInOrder(t *testing.T) {
	out, err := exec.Map(context.Background(), 64, func(i int) int { return i * i })
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
