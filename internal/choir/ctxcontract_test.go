package choir

import (
	"context"
	"testing"
)

// neverFiresCtx is a custom context whose Done channel is nil: per the
// context.Context contract it can never be canceled, and per the repository
// contract (package ctxutil) the decoder must treat it exactly like no
// context at all.
type neverFiresCtx struct{ context.Context }

func (neverFiresCtx) Done() <-chan struct{} { return nil }
func (neverFiresCtx) Err() error            { return nil }

// TestNeverFiringContextsBitIdentical pins the normalized nil-context
// contract: a nil context, context.Background(), context.TODO() and a custom
// context with a nil Done channel all decode bit-identically — none of them
// may arm the cancellation machinery.
func TestNeverFiringContextsBitIdentical(t *testing.T) {
	spec := defaultSpec(2, 9)
	sig := synthesize(t, spec)
	plen := len(spec.payloads[0])
	cfg := DefaultConfig(spec.params)
	d := MustNew(cfg)

	want, err := d.Decode(context.Background(), sig, plen)
	if err != nil {
		t.Fatalf("baseline decode: %v", err)
	}

	cases := []struct {
		name string
		ctx  context.Context
	}{
		{"nil", nil},
		{"Background", context.Background()},
		{"TODO", context.TODO()},
		{"custom nil-Done", neverFiresCtx{context.Background()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := d.Decode(tc.ctx, sig, plen)
			if err != nil {
				t.Fatalf("Decode(%s): %v", tc.name, err)
			}
			assertSameResult(t, got, want)
		})
	}
}
