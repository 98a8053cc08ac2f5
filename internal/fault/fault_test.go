package fault

import (
	"math"
	"math/cmplx"
	"sync"
	"testing"
)

// mustNew is New that panics on error, for the tests' fixed, valid inputs.
func mustNew(class Class, intensity float64) *Injector {
	inj, err := New(class, intensity)
	if err != nil {
		panic(err)
	}
	return inj
}

// testSignal renders a deterministic constant-envelope multitone — close in
// character to the chirp waveforms injectors see in production.
func testSignal(n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		ph := 2*math.Pi*0.03*float64(i) + 1e-4*float64(i)*float64(i)
		x[i] = cmplx.Exp(complex(0, ph))
	}
	return x
}

func TestNewValidation(t *testing.T) {
	for _, bad := range []float64{-0.1, 1.1, math.NaN(), math.Inf(1)} {
		if _, err := New(Clip, bad); err == nil {
			t.Errorf("New(Clip, %v): want error", bad)
		}
	}
	if _, err := New(Class(99), 0.5); err == nil {
		t.Error("New(Class(99)): want error")
	}
	for _, c := range Classes() {
		if _, err := New(c, 0.5); err != nil {
			t.Errorf("New(%v, 0.5): %v", c, err)
		}
	}
}

func TestParseClassRoundTrip(t *testing.T) {
	for _, c := range Classes() {
		got, err := ParseClass(c.String())
		if err != nil || got != c {
			t.Errorf("ParseClass(%q) = %v, %v; want %v", c.String(), got, err, c)
		}
	}
	if got, err := ParseClass("DRIFT"); err != nil || got != DriftStep {
		t.Errorf("ParseClass is not case-insensitive: %v, %v", got, err)
	}
	if _, err := ParseClass("meteor"); err == nil {
		t.Error("ParseClass(meteor): want error")
	}
}

// TestZeroIntensityNoOp is the acceptance criterion's anchor: intensity 0
// must return the identical slice with identical contents, for every class.
func TestZeroIntensityNoOp(t *testing.T) {
	for _, c := range Classes() {
		x := testSignal(512)
		want := append([]complex128(nil), x...)
		got := mustNew(c, 0).Apply(x, 12345)
		if len(got) != len(want) {
			t.Fatalf("%v@0: length %d != %d", c, len(got), len(want))
		}
		if &got[0] != &x[0] {
			t.Errorf("%v@0: returned a different backing array", c)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v@0: sample %d changed: %v != %v", c, i, got[i], want[i])
			}
		}
	}
}

// TestDeterminism: same seed, same corruption — different seed, different
// corruption (for the randomized classes).
func TestDeterminism(t *testing.T) {
	for _, c := range Classes() {
		inj := mustNew(c, 0.6)
		a := inj.Apply(testSignal(2048), 7)
		b := inj.Apply(testSignal(2048), 7)
		if len(a) != len(b) {
			t.Fatalf("%v: lengths differ across identical seeds", c)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: sample %d differs across identical seeds", c, i)
			}
		}
	}
	// Seed sensitivity for the stochastic classes.
	for _, c := range []Class{DropBurst, Interferer, DriftStep} {
		inj := mustNew(c, 0.6)
		a := inj.Apply(testSignal(2048), 7)
		b := inj.Apply(testSignal(2048), 8)
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%v: identical output for different seeds", c)
		}
	}
}

func TestClipLimitsComponents(t *testing.T) {
	x := testSignal(1024)
	peak := 0.0
	for _, v := range x {
		peak = math.Max(peak, math.Max(math.Abs(real(v)), math.Abs(imag(v))))
	}
	out := mustNew(Clip, 0.5).Apply(x, 1)
	rail := 0.5 * peak
	clipped := 0
	for _, v := range out {
		if math.Abs(real(v)) > rail+1e-12 || math.Abs(imag(v)) > rail+1e-12 {
			t.Fatalf("component beyond rail %g: %v", rail, v)
		}
		if math.Abs(real(v)) == rail || math.Abs(imag(v)) == rail {
			clipped++
		}
	}
	if clipped == 0 {
		t.Error("clip at intensity 0.5 flattened nothing")
	}
}

func TestDropBurstZeroesFraction(t *testing.T) {
	x := testSignal(8192)
	out := mustNew(DropBurst, 0.8).Apply(x, 3)
	zeros := 0
	for _, v := range out {
		if v == 0 {
			zeros++
		}
	}
	// Target is 0.8·0.5 = 40 % of samples; overlap keeps the exact count
	// slightly below the sum of burst lengths.
	if frac := float64(zeros) / float64(len(out)); frac < 0.3 || frac > 0.55 {
		t.Errorf("dropped fraction %.2f, want ≈0.4", frac)
	}
}

func TestInterfererRaisesPower(t *testing.T) {
	x := testSignal(4096)
	before := power(x)
	out := mustNew(Interferer, 0.7).Apply(x, 5)
	if after := power(out); after < before*1.5 {
		t.Errorf("interferer power ratio %.2f, want > 1.5", after/before)
	}
}

func TestDriftStepPreservesEnvelope(t *testing.T) {
	x := testSignal(4096)
	out := mustNew(DriftStep, 1).Apply(x, 9)
	changed := false
	for i, v := range out {
		if math.Abs(cmplx.Abs(v)-1) > 1e-9 {
			t.Fatalf("drift changed envelope at %d: |%v| = %g", i, v, cmplx.Abs(v))
		}
		if v != testSignal(4096)[i] {
			changed = true
		}
	}
	if !changed {
		t.Error("drift at intensity 1 left the signal untouched")
	}
}

func TestTruncateCutsTail(t *testing.T) {
	x := testSignal(1000)
	out := mustNew(Truncate, 1).Apply(x, 0)
	if len(out) != 100 {
		t.Errorf("truncate@1 kept %d of 1000 samples, want 100", len(out))
	}
	out = mustNew(Truncate, 0.5).Apply(testSignal(1000), 0)
	if len(out) != 550 {
		t.Errorf("truncate@0.5 kept %d of 1000 samples, want 550", len(out))
	}
}

func TestEmptyInput(t *testing.T) {
	for _, c := range Classes() {
		if got := mustNew(c, 1).Apply(nil, 1); len(got) != 0 {
			t.Errorf("%v on empty input returned %d samples", c, len(got))
		}
	}
}

// TestInterfererFanOutDeterminism is the foreign-network audit pin. The
// interferer injector is the seed of the engine's foreign-network model,
// and multi-network sweeps multiply the number of in-flight Apply calls per
// wall-clock instant; if Apply drew from any injector-held RNG stream, the
// worker count would reorder draws and break W=1 ≡ W=8. The audit found
// none — Apply builds its private PCG from the seed argument alone — and
// this pins it: a fan-out of distinct-seed trials across 8 goroutines must
// reproduce the serial pass byte for byte, per seed (run under -race in CI).
func TestInterfererFanOutDeterminism(t *testing.T) {
	const trials = 64
	inj := mustNew(Interferer, 0.7)
	serial := make([][]complex128, trials)
	for s := range serial {
		serial[s] = inj.Apply(testSignal(512), uint64(s))
	}
	conc := make([][]complex128, trials)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := w; s < trials; s += 8 {
				conc[s] = inj.Apply(testSignal(512), uint64(s))
			}
		}(w)
	}
	wg.Wait()
	for s := range serial {
		for i := range serial[s] {
			if serial[s][i] != conc[s][i] {
				t.Fatalf("seed %d sample %d: fan-out diverged from serial pass", s, i)
			}
		}
	}
}

// TestApplyConcurrentSafe exercises the stateless contract: one injector
// shared across goroutines must behave as if used serially (run with -race).
func TestApplyConcurrentSafe(t *testing.T) {
	inj := mustNew(Interferer, 0.5)
	want := inj.Apply(testSignal(1024), 42)
	done := make(chan []complex128, 8)
	for g := 0; g < 8; g++ {
		go func() { done <- inj.Apply(testSignal(1024), 42) }()
	}
	for g := 0; g < 8; g++ {
		got := <-done
		for i := range want {
			if got[i] != want[i] {
				t.Fatal("concurrent Apply diverged from serial result")
			}
		}
	}
}

func power(x []complex128) float64 {
	var p float64
	for _, v := range x {
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	return p / float64(len(x))
}
