package choir

import (
	"context"
	"math"
	"testing"
)

// TestDecodeIntoMatchesDecode pins DecodeInto (recycled Result storage)
// against Decode (fresh Result) bit-for-bit, including when the recycled
// Result previously held a differently-shaped decode.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	specA := defaultSpec(3, 21)
	specB := defaultSpec(2, 22)
	sigA := synthesize(t, specA)
	sigB := synthesize(t, specB)

	fresh := MustNew(DefaultConfig(specA.params))
	wantA, errA := fresh.Decode(context.Background(), sigA, len(specA.payloads[0]))
	wantB, errB := fresh.Decode(context.Background(), sigB, len(specB.payloads[0]))
	if errA != nil || errB != nil {
		t.Fatalf("reference decodes failed: %v / %v", errA, errB)
	}

	d := MustNew(DefaultConfig(specA.params))
	res := &Result{}
	got, err := d.DecodeInto(res, sigA, len(specA.payloads[0]))
	if err != nil {
		t.Fatal(err)
	}
	if got != res {
		t.Fatal("DecodeInto did not return the caller's Result")
	}
	assertSameResult(t, got, wantA)

	// Reuse the 3-user Result for a 2-user collision: shrinking must not
	// leak stale users or storage into the output.
	got, err = d.DecodeInto(res, sigB, len(specB.payloads[0]))
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, got, wantB)

	// nil Result allocates a fresh one.
	got, err = d.DecodeInto(nil, sigA, len(specA.payloads[0]))
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, got, wantA)
}

// TestDecodeSteadyStateZeroAllocs guards the tentpole property of the decode
// hot path: once the decoder's scratch buffers have warmed up,
// DecodeInto performs zero heap allocations per packet. Runs in the regular
// (and race/short) CI test job, so an allocation regression fails the build.
func TestDecodeSteadyStateZeroAllocs(t *testing.T) {
	spec := defaultSpec(2, 9)
	spec.gainsDBm = []float64{20, 15}
	sig := synthesize(t, spec)
	d := MustNew(DefaultConfig(spec.params))
	res := &Result{}

	decodeOnce := func() {
		if _, err := d.DecodeInto(res, sig, len(spec.payloads[0])); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up: the first decode sizes every slab and scratch buffer; the
	// second verifies the high-water marks are stable.
	decodeOnce()
	decodeOnce()
	for _, u := range res.Users {
		if !u.Decoded() {
			t.Fatalf("warm-up decode failed: %v", u.Err)
		}
	}
	allocs := testing.AllocsPerRun(5, decodeOnce)
	if allocs != 0 {
		t.Fatalf("steady-state DecodeInto allocates %.1f times/op, want 0", allocs)
	}
}

// BenchmarkDecodeSteadyState measures the zero-alloc DecodeInto hot path on
// TestDecodeSteadyStateZeroAllocs' two-user near-far collision, isolating
// decode compute from Result construction.
func BenchmarkDecodeSteadyState(b *testing.B) {
	spec := defaultSpec(2, 9)
	spec.gainsDBm = []float64{20, 15}
	sig := synthesize(b, spec)
	d := MustNew(DefaultConfig(spec.params))
	res := &Result{}
	if _, err := d.DecodeInto(res, sig, len(spec.payloads[0])); err != nil {
		b.Fatal(err)
	}
	ok := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.DecodeInto(res, sig, len(spec.payloads[0])); err != nil {
			b.Fatal(err)
		}
		ok += len(res.Users)
	}
	if ok == 0 && b.N > 0 && math.IsNaN(float64(ok)) {
		b.Fatal("unreachable; keeps res live")
	}
}

// BenchmarkDecodeEightUserCollision is one whole decode of eight users at
// 15–22 dB SNR through the allocating Decode: the collision order past the
// decoder's saturation point.
func BenchmarkDecodeEightUserCollision(b *testing.B) {
	spec := defaultSpec(8, 10)
	for i := range spec.gainsDBm {
		spec.gainsDBm[i] = spec.noiseDBm + 15 + float64(i)
	}
	sig := synthesize(b, spec)
	d := MustNew(DefaultConfig(spec.params))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Decode(context.Background(), sig, len(spec.payloads[0])); err != nil {
			b.Fatal(err)
		}
	}
}
