package backend_test

// Pins the batched tentpole's core guarantee end to end: decoding the six
// golden fixtures through backend.DecodeBatch produces bit-identical
// results to the serial Reseed+DecodeCtxInto loop — offsets compared at the
// Float64bits level — and the guarantee holds with metrics recording both
// off and on (composing DESIGN.md §10's determinism guarantee with §14's
// batched layout).

import (
	"context"
	"testing"

	"choir/internal/backend"
	"choir/internal/choir"
	"choir/internal/obs"
)

func TestDecodeBatchGoldenFixturesBitIdentical(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("metrics unexpectedly enabled at test start")
	}
	// Group fixtures by PHY configuration: a backend instance is built for
	// one Params, and the gateway batches per-PHY the same way.
	groups := [][]string{
		{"single_sf7", "collide2_sf7", "fault_interferer_sf7"},
		{"collide3_sf8", "fault_drift_sf8", "team_sf8"},
	}
	for _, names := range groups {
		type fixture struct {
			name       string
			samples    []complex128
			payloadLen int
		}
		var fixtures []fixture
		h0, _ := loadFixture(t, names[0])
		for _, name := range names {
			h, samples := loadFixture(t, name)
			if h.Params != h0.Params {
				t.Fatalf("fixture %s has params %+v, want group params %+v", name, h.Params, h0.Params)
			}
			fixtures = append(fixtures, fixture{name, samples, h.PayloadLen})
		}

		decode := func(batched bool) []backend.BatchItem {
			items := make([]backend.BatchItem, len(fixtures))
			for i, fx := range fixtures {
				items[i] = backend.BatchItem{
					Samples:    fx.samples,
					PayloadLen: fx.payloadLen,
					Seed:       uint64(200 + i),
					Res:        &choir.Result{},
				}
			}
			b := backend.MustNew("choir", h0.Params)
			if batched {
				if err := backend.DecodeBatch(context.Background(), b, items); err != nil {
					t.Fatalf("DecodeBatch: %v", err)
				}
				return items
			}
			for i := range items {
				b.Reseed(items[i].Seed)
				items[i].Err = b.DecodeCtxInto(context.Background(), items[i].Res, items[i].Samples, items[i].PayloadLen)
			}
			return items
		}

		check := func(metrics string) {
			want := decode(false)
			got := decode(true)
			for i, fx := range fixtures {
				label := fx.name + "/" + metrics
				sameErr(t, label, got[i].Err, want[i].Err)
				sameResult(t, label, got[i].Res, want[i].Res)
			}
		}
		check("metrics-off")
		obs.Enable()
		check("metrics-on")
		obs.Disable()
	}
}
