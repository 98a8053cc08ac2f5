package backend_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"choir/internal/backend"
	"choir/internal/choir"
	"choir/internal/lora"
	"choir/internal/trace"
)

// badPayloadLens are lengths no SX127x frame carries: negative, one past the
// one-byte length field, and one whose frame size overflows int.
var badPayloadLens = []int{-5, -1, lora.MaxPayloadLen + 1, math.MaxInt}

// TestEveryEntryRefusesPayloadLenOutOfRange: every decode entry point —
// each backend, team decoding, the payload decoder and the single-user
// demodulator — refuses a payload length outside [0, MaxPayloadLen] with
// lora.ErrPayloadLen instead of panicking or decoding.
func TestEveryEntryRefusesPayloadLenOutOfRange(t *testing.T) {
	h, samples := loadFixture(t, "collide2_sf7")
	ctx := context.Background()
	modem, err := lora.NewModem(h.Params)
	if err != nil {
		t.Fatal(err)
	}
	syms := make([]int, 64)
	entries := map[string]func(n int) error{
		"DecodeTeam": func(n int) error {
			_, err := backend.Decoder(backend.MustNew("choir", h.Params)).DecodeTeam(ctx, samples, n)
			return err
		},
		"DecodeSymbols": func(n int) error {
			_, _, err := lora.DecodeSymbols(syms, n, h.Params)
			return err
		},
		"Demodulate": func(n int) error {
			_, err := modem.Demodulate(samples, n)
			return err
		},
	}
	for _, name := range backend.Names() {
		entries[name] = func(n int) error {
			_, err := backend.Decode(ctx, backend.MustNew(name, h.Params), samples, n)
			return err
		}
	}
	for name, decode := range entries {
		for _, n := range badPayloadLens {
			t.Run(fmt.Sprintf("%s/%d", name, n), func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				if err := decode(n); !errors.Is(err, lora.ErrPayloadLen) {
					t.Errorf("err = %v, want lora.ErrPayloadLen", err)
				}
			})
		}
	}
}

// TestEveryBackendRefusesSaturatedCapture: one capture clipped far below its
// envelope, so both quadratures of most samples sit on the rail, fails
// every backend with choir.ErrSaturated — the backends are compared on the
// same IQ under the same capture rule.
func TestEveryBackendRefusesSaturatedCapture(t *testing.T) {
	h, clean := loadFixture(t, "collide2_sf7")
	peak := 0.0
	for _, v := range clean {
		peak = max(peak, math.Abs(real(v)), math.Abs(imag(v)))
	}
	rail := 0.05 * peak
	clip := func(v float64) float64 { return max(-rail, min(rail, v)) }
	samples := make([]complex128, len(clean))
	pinned := 0
	for i, v := range clean {
		samples[i] = complex(clip(real(v)), clip(imag(v)))
		if math.Abs(real(samples[i])) == rail && math.Abs(imag(samples[i])) == rail {
			pinned++
		}
	}
	if frac := float64(pinned) / float64(len(samples)); frac < 0.75 {
		t.Fatalf("only %.0f%% of samples pinned; the capture must be severely clipped", 100*frac)
	}
	for _, name := range backend.Names() {
		_, err := backend.Decode(context.Background(), backend.MustNew(name, h.Params), samples, h.PayloadLen)
		if !errors.Is(err, choir.ErrSaturated) {
			t.Errorf("%s: err = %v, want choir.ErrSaturated", name, err)
		}
	}
}

// hostileValues are what FuzzBackendDecode writes over samples: non-finite
// values the capture rule refuses, and finite ones whose squares overflow.
var hostileValues = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, math.MaxFloat64}

// FuzzBackendDecode sends every backend hostile requests built from the
// golden captures: any payload length, the samples truncated or extended
// with zeros, and some of them overwritten with hostileValues. No decode may
// panic; every error, frame-level or per user, falls in a named class of
// choir.ErrClass; a length out of range fails with lora.ErrPayloadLen;
// every decoded payload has the requested length; and the instance then
// decodes its clean capture exactly as a fresh instance does.
func FuzzBackendDecode(f *testing.F) {
	fixtures := []string{"single_sf7", "collide2_sf7", "collide3_sf8", "fault_interferer_sf7", "fault_drift_sf8", "team_sf8"}
	type capture struct {
		h       trace.Header
		samples []complex128
	}
	captures := make([]capture, len(fixtures))
	for i, name := range fixtures {
		h, samples := loadFixture(f, name)
		captures[i] = capture{h, samples}
		f.Add(uint8(i), uint8(i), h.PayloadLen, len(samples), []byte(nil))
	}
	f.Add(uint8(1), uint8(4), -1, len(captures[1].samples), []byte(nil))
	f.Add(uint8(2), uint8(3), captures[2].h.PayloadLen, 3*captures[2].h.Params.N(), []byte{9, 0, 0, 0, 0})
	f.Add(uint8(0), uint8(1), captures[0].h.PayloadLen, len(captures[0].samples), []byte{40, 1, 0, 0, 3, 200, 9, 0, 0, 0x14})

	names := backend.Names()
	type key struct {
		name    string
		capture int
	}
	type decoded struct {
		res *choir.Result
		err error
	}
	warm := map[key]backend.Backend{}
	fresh := map[key]decoded{}
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, capIdx, nameIdx uint8, payloadLen, nSamples int, corrupt []byte) {
		k := key{names[int(nameIdx)%len(names)], int(capIdx) % len(captures)}
		c := captures[k.capture]
		if _, ok := fresh[k]; !ok {
			res, err := backend.Decode(ctx, backend.MustNew(k.name, c.h.Params), c.samples, c.h.PayloadLen)
			fresh[k] = decoded{res, err}
			warm[k] = backend.MustNew(k.name, c.h.Params)
		}
		b := warm[k]

		samples := make([]complex128, int(uint(nSamples)%uint(len(c.samples)+4*c.h.Params.N())))
		copy(samples, c.samples)
		for ; len(corrupt) >= 5 && len(samples) > 0; corrupt = corrupt[5:] {
			i := int(binary.LittleEndian.Uint32(corrupt) % uint32(len(samples)))
			v := hostileValues[int(corrupt[4]&0x7f)%len(hostileValues)]
			if corrupt[4]&0x80 == 0 {
				samples[i] = complex(v, imag(samples[i]))
			} else {
				samples[i] = complex(real(samples[i]), v)
			}
		}

		res, err := backend.Decode(ctx, b, samples, payloadLen)
		if err != nil && choir.ErrClass(err) == "other" {
			t.Fatalf("%s: error outside the taxonomy: %v", k.name, err)
		}
		if lora.CheckPayloadLen(payloadLen) != nil && !errors.Is(err, lora.ErrPayloadLen) {
			t.Fatalf("%s: payload length %d: err = %v, want lora.ErrPayloadLen", k.name, payloadLen, err)
		}
		if err == nil {
			for i, u := range res.Users {
				if u.Decoded() && len(u.Payload) != payloadLen {
					t.Fatalf("%s user %d: %d-byte payload, requested %d", k.name, i, len(u.Payload), payloadLen)
				}
				if u.Err != nil && choir.ErrClass(u.Err) == "other" {
					t.Fatalf("%s user %d: error outside the taxonomy: %v", k.name, i, u.Err)
				}
			}
		}

		want := fresh[k]
		got, err := backend.Decode(ctx, b, c.samples, c.h.PayloadLen)
		label := fmt.Sprintf("%s on %s after a hostile decode", k.name, fixtures[k.capture])
		sameErr(t, label, err, want.err)
		if err == nil && want.err == nil {
			sameResult(t, label, got, want.res)
		}
	})
}
