package backend

import (
	"context"

	"choir/internal/choir"
	"choir/internal/lora"
)

// The three Choir-pipeline backends. "choir" is the paper's full pipeline
// and stays bit-identical to the golden-trace fixtures; "relaxed" and
// "strongest" are the gateway recovery ladder's fallback rungs, now
// first-class algorithms selectable everywhere. The configurations are
// authoritative here — the gateway references the rungs by name.
func init() {
	Register("choir", func(p lora.Params) (Backend, error) {
		return newDecoderBackend("choir", choir.DefaultConfig(p))
	})
	Register("relaxed", func(p lora.Params) (Backend, error) {
		return newDecoderBackend("relaxed", RelaxedConfig(p))
	})
	Register("strongest", func(p lora.Params) (Backend, error) {
		return newDecoderBackend("strongest", StrongestConfig(p))
	})
}

// RelaxedConfig returns the "relaxed" backend's decoder configuration:
// loosened tunables — lower peak threshold, wider fingerprint-matching
// tolerance, wider per-phase dynamic range — recovering frames whose offsets
// drifted or whose peaks sank below the default gates (clipping,
// interferers, oscillator steps).
func RelaxedConfig(p lora.Params) choir.Config {
	cfg := choir.DefaultConfig(p)
	cfg.PeakThreshold = 3.5
	cfg.MatchTolerance = 0.12
	cfg.DynamicRangeDB = 14
	cfg.TotalDynamicRangeDB = 40
	return cfg
}

// StrongestConfig returns the "strongest" backend's decoder configuration:
// track only the single strongest user with SIC disabled, abandoning the
// collision's weak users to salvage at least one payload per capture.
// FineSearch stays on (as in every Choir-pipeline rung): coarse offset
// estimates corrupt the fingerprint matching that separates users, which
// would turn the fallback into a wrong-payload generator rather than a
// cheaper decoder.
func StrongestConfig(p lora.Params) choir.Config {
	cfg := choir.DefaultConfig(p)
	cfg.MaxUsers = 1
	cfg.SICPhases = 0
	cfg.PeakThreshold = 4
	cfg.FineIters = 8
	return cfg
}

// decoderBackend adapts a choir.Decoder to the Backend interface — the
// shared implementation behind every Choir-pipeline backend. Dispatch adds
// nothing on top of the decoder call (no allocation, no copying), which
// TestBackendDispatchZeroAllocs pins.
type decoderBackend struct {
	name string
	dec  *choir.Decoder
}

var _ Backend = (*decoderBackend)(nil)

func newDecoderBackend(name string, cfg choir.Config) (*decoderBackend, error) {
	dec, err := choir.New(cfg)
	if err != nil {
		return nil, err
	}
	return &decoderBackend{name: name, dec: dec}, nil
}

func (b *decoderBackend) Name() string        { return b.name }
func (b *decoderBackend) Params() lora.Params { return b.dec.Config().LoRa }
func (b *decoderBackend) Reseed(seed uint64)  {}

func (b *decoderBackend) DecodeCtxInto(ctx context.Context, res *choir.Result, samples []complex128, payloadLen int) error {
	return b.dec.DecodeCtxInto(ctx, res, samples, payloadLen)
}

// Decoder exposes the underlying Choir decoder for callers that need the
// full pipeline surface (team decoding, config introspection). It returns
// nil for non-Choir backends.
func Decoder(b Backend) *choir.Decoder {
	db, _ := b.(*decoderBackend)
	if db == nil {
		return nil
	}
	return db.dec
}
