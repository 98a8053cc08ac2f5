package backend

import (
	"context"
	"fmt"

	"choir/internal/choir"
	"choir/internal/lora"
)

// NewMultiSF builds a multi-SF decoder whose per-SF decode is the named
// backend: one backend instance per spreading factor (each owning its own
// scratch, so the concurrent Decode grid is race-free), adapted into the
// choir.SFDecoder contract. Any registered backend slots in — the multi-SF
// fan-out machinery is algorithm-agnostic.
func NewMultiSF(name string, base lora.Params, sfs []lora.SpreadingFactor) (*choir.MultiSFDecoder, error) {
	if len(sfs) == 0 {
		return nil, fmt.Errorf("backend: no spreading factors given")
	}
	decs := make(map[lora.SpreadingFactor]choir.SFDecoder, len(sfs))
	for _, sf := range sfs {
		if _, dup := decs[sf]; dup {
			return nil, fmt.Errorf("backend: duplicate spreading factor %v", sf)
		}
		p := base
		p.SF = sf
		b, err := New(name, p)
		if err != nil {
			return nil, fmt.Errorf("backend: %v: %w", sf, err)
		}
		decs[sf] = SFAdapter{B: b}
	}
	return choir.NewMultiSFFrom(decs)
}

// SFAdapter adapts a Backend to the choir.SFDecoder contract, giving each
// decode a fresh Result (the multi-SF caller keeps results from all SFs
// alive simultaneously, so per-call recycling does not apply).
type SFAdapter struct {
	B Backend
}

var _ choir.SFDecoder = SFAdapter{}

// Decode implements choir.SFDecoder.
func (a SFAdapter) Decode(ctx context.Context, samples []complex128, payloadLen int) (*choir.Result, error) {
	return Decode(ctx, a.B, samples, payloadLen)
}
