package backend_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"choir/internal/backend"
	"choir/internal/channel"
	"choir/internal/choir"
	"choir/internal/lora"
	"choir/internal/radio"
)

// multiSFCollision renders one transmitter per provided SF on a shared
// timeline plus noise (the same construction as internal/choir's multi-SF
// suite, rebuilt here because that helper is package-internal).
func multiSFCollision(t *testing.T, payloads map[lora.SpreadingFactor][]byte, seed uint64) []complex128 {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0x515F))
	pop := radio.DefaultPopulation()
	var emissions []channel.Emission
	maxLen := 0
	id := 0
	for sf := lora.SF7; sf <= lora.SF12; sf++ {
		payload, ok := payloads[sf]
		if !ok {
			continue
		}
		p := lora.DefaultParams()
		p.SF = sf
		m := lora.MustModem(p)
		tx := &radio.Transmitter{
			ID:           id,
			Osc:          radio.Oscillator{PPM: (rng.Float64()*2 - 1) * 15},
			TimingOffset: rng.NormFloat64() * 40e-6,
			Phase:        rng.Float64() * 2 * math.Pi,
		}
		id++
		sig, whole := tx.Transmit(m, payload, pop.CarrierHz)
		emissions = append(emissions, channel.Emission{Samples: sig, StartSample: whole, Gain: 1})
		if l := whole + len(sig); l > maxLen {
			maxLen = l
		}
	}
	return channel.Combine(maxLen+64, emissions, channel.Config{NoiseFloorDBm: -45}, rng)
}

// TestMultiSFConcurrentDecodeThroughBackends drives the concurrent
// multi-SF grid (internal/choir/multisf.go Decode, one goroutine per
// SF) entirely through the Backend interface: any registered backend must
// slot into the per-SF fan-out and recover its SF's payload. Run with
// -race this also pins that per-SF backend instances share no scratch.
func TestMultiSFConcurrentDecodeThroughBackends(t *testing.T) {
	payloads := map[lora.SpreadingFactor][]byte{
		lora.SF7: []byte("sf7-data"),
		lora.SF8: []byte("sf8-data"),
	}
	sig := multiSFCollision(t, payloads, 1)
	lens := map[lora.SpreadingFactor]int{lora.SF7: 8, lora.SF8: 8}

	for _, name := range []string{"choir", "relaxed", "superposed"} {
		t.Run(name, func(t *testing.T) {
			m, err := backend.NewMultiSF(name, lora.DefaultParams(), []lora.SpreadingFactor{lora.SF7, lora.SF8})
			if err != nil {
				t.Fatal(err)
			}
			results := m.Decode(context.Background(), sig, lens)
			if len(results) != 2 {
				t.Fatalf("%d SF results, want 2", len(results))
			}
			for _, sr := range results {
				if sr.Err != nil {
					t.Fatalf("%v: %v", sr.SF, sr.Err)
				}
				if sr.Result == nil {
					t.Fatalf("%v: nothing decoded", sr.SF)
				}
				want := payloads[sr.SF]
				found := false
				for _, got := range sr.Result.DecodedPayloads() {
					if bytes.Equal(got, want) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("%v: payload %q not recovered", sr.SF, want)
				}
			}
		})
	}
}

// gatedSFDecoder sequences a deterministic mid-grid cancellation: the SF7
// decoder decodes first and then releases the gate; the SF8 decoder waits
// on the gate, cancels the shared context, and only then starts decoding.
type gatedSFDecoder struct {
	delegate choir.SFDecoder
	release  chan struct{} // closed after decode (SF7) / awaited before (SF8)
	cancel   context.CancelFunc
}

func (g *gatedSFDecoder) Decode(ctx context.Context, samples []complex128, payloadLen int) (*choir.Result, error) {
	if g.cancel != nil {
		<-g.release
		g.cancel()
	}
	res, err := g.delegate.Decode(ctx, samples, payloadLen)
	if g.cancel == nil {
		close(g.release)
	}
	return res, err
}

// TestMultiSFCancellationMidGrid cancels the multi-SF context after one SF
// has finished but before the other starts: the finished SF keeps its full
// result while the interrupted SF surfaces the typed cancellation error
// through the backend adapter — no partial results, no hangs, no panics.
func TestMultiSFCancellationMidGrid(t *testing.T) {
	payloads := map[lora.SpreadingFactor][]byte{
		lora.SF7: []byte("sf7-data"),
		lora.SF8: []byte("sf8-data"),
	}
	sig := multiSFCollision(t, payloads, 1)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gate := make(chan struct{})
	p7 := lora.DefaultParams()
	p7.SF = lora.SF7
	p8 := lora.DefaultParams()
	p8.SF = lora.SF8
	m, err := choir.NewMultiSFFrom(map[lora.SpreadingFactor]choir.SFDecoder{
		lora.SF7: &gatedSFDecoder{delegate: backend.SFAdapter{B: backend.MustNew("choir", p7)}, release: gate},
		lora.SF8: &gatedSFDecoder{delegate: backend.SFAdapter{B: backend.MustNew("choir", p8)}, release: gate, cancel: cancel},
	})
	if err != nil {
		t.Fatal(err)
	}

	results := m.Decode(ctx, sig, map[lora.SpreadingFactor]int{lora.SF7: 8, lora.SF8: 8})
	if len(results) != 2 {
		t.Fatalf("%d SF results, want 2", len(results))
	}
	for _, sr := range results {
		switch sr.SF {
		case lora.SF7:
			if sr.Err != nil || sr.Result == nil {
				t.Fatalf("SF7 finished before cancellation but lost its result: %v", sr.Err)
			}
			if got := sr.Result.DecodedPayloads(); len(got) != 1 || !bytes.Equal(got[0], payloads[lora.SF7]) {
				t.Errorf("SF7 payloads %q, want %q", got, payloads[lora.SF7])
			}
		case lora.SF8:
			if !errors.Is(sr.Err, choir.ErrCanceled) {
				t.Errorf("SF8 interrupted mid-grid with untyped error: %v", sr.Err)
			}
			if sr.Result != nil {
				t.Errorf("SF8 returned a partial result alongside cancellation")
			}
		}
	}
}
