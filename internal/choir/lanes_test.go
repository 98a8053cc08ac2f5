package choir_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"choir/internal/choir"
	"choir/internal/gateway"
	"choir/internal/lora"
	"choir/internal/obs"
	"choir/internal/trace"
)

// laneFrame is one capture the lane-count test decodes.
type laneFrame struct {
	name       string
	p          lora.Params
	samples    []complex128
	payloadLen int
}

// laneFrames returns every golden .iq fixture and the first rendering of
// every decision cell.
func laneFrames(t *testing.T) []laneFrame {
	t.Helper()
	names, err := filepath.Glob(filepath.Join("testdata", "golden", "*.iq"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no golden fixtures: %v", err)
	}
	var frames []laneFrame
	for _, name := range names {
		h, samples := readTrace(t, name)
		frames = append(frames, laneFrame{filepath.Base(name), h.Params, samples, h.PayloadLen})
	}
	for _, c := range decisionCells {
		sc, samples, _ := decisionFrame(c.sf, c.users, 0)
		frames = append(frames, laneFrame{fmt.Sprintf("sf%du%d", c.sf, c.users), sc.Params, samples, sc.PayloadLen})
	}
	return frames
}

func readTrace(t *testing.T, path string) (trace.Header, []complex128) {
	t.Helper()
	h, samples, err := trace.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return h, samples
}

// TestLaneCountEquivalence decodes every golden fixture and every decision
// cell at GOMAXPROCS 1, 2 and 4 — a decode fans its window loops out over
// min(GOMAXPROCS, windows) − 1 helper lanes — and holds each result to a
// fresh decoder's at GOMAXPROCS 1, bit for bit. One decoder per frame serves
// all three counts, so it also grows lanes between decodes.
func TestLaneCountEquivalence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, fr := range laneFrames(t) {
		t.Run(fr.name, func(t *testing.T) {
			cfg := choir.DefaultConfig(fr.p)
			runtime.GOMAXPROCS(1)
			want, wantErr := choir.MustNew(cfg).Decode(context.Background(), fr.samples, fr.payloadLen)
			d := choir.MustNew(cfg)
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				got, err := d.Decode(context.Background(), fr.samples, fr.payloadLen)
				if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
					t.Fatalf("GOMAXPROCS %d: err %v, want %v", procs, err, wantErr)
				}
				if err == nil {
					choir.AssertSameResult(t, got, want)
				}
			}
		})
	}
}

// TestStageCountsIndependentOfLanes decodes every golden fixture with
// metrics on at GOMAXPROCS 1, 2 and 4: helper lanes record stage spans and
// counters of their own, so each choir.* counter and the count of each
// choir.* timer (choir.stage.*_ns among them) must come out the same at every
// width. Timer sums are timings and are not compared.
func TestStageCountsIndependentOfLanes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	obs.Enable()
	defer obs.Disable()
	counts := func(h trace.Header, samples []complex128, team bool) map[string]int64 {
		obs.Reset()
		decodeReport(h, samples, team)
		snap := obs.TakeSnapshot()
		out := map[string]int64{}
		for name, v := range snap.Counters {
			if strings.HasPrefix(name, "choir.") {
				out[name] = v
			}
		}
		for name, hs := range snap.Histograms {
			if strings.HasPrefix(name, "choir.") {
				out[name+" count"] = hs.Count
			}
		}
		return out
	}
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			h, samples := readTrace(t, filepath.Join("testdata", "golden", c.name+".iq"))
			runtime.GOMAXPROCS(1)
			want := counts(h, samples, c.team)
			if want["choir.stage.fft_ns count"] == 0 {
				t.Fatal("no FFT span recorded at GOMAXPROCS 1")
			}
			for _, procs := range []int{2, 4} {
				runtime.GOMAXPROCS(procs)
				got := counts(h, samples, c.team)
				for name, v := range want {
					if got[name] != v {
						t.Errorf("GOMAXPROCS %d: %s = %d, want %d as at GOMAXPROCS 1", procs, name, got[name], v)
					}
				}
			}
		})
	}
}

// TestFanOutPanicSurfacesAsErrDecodePanic panics inside a window a helper
// lane runs while a gateway decodes the frame: the gateway must see the
// panic on its decoding goroutine and report the frame as ErrDecodePanic.
func TestFanOutPanicSurfacesAsErrDecodePanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	h, samples := readTrace(t, filepath.Join("testdata", "golden", "collide2_sf7.iq"))
	defer choir.SetWindowHook(choir.PanicOnHelper(choir.WindowPeaks))()

	g, err := gateway.New(gateway.Config{Queue: 1, Workers: 1, Ladder: []string{"choir"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Submit(context.Background(), "panic", h, samples); err != nil {
		t.Fatal(err)
	}
	done := make(chan []gateway.Outcome, 1)
	go func() {
		var outs []gateway.Outcome
		for o := range g.Outcomes() {
			outs = append(outs, o)
		}
		done <- outs
	}()
	if err := g.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	outs := <-done
	if len(outs) != 1 || outs[0].Kind != gateway.OutcomeFailed || !errors.Is(outs[0].Err, gateway.ErrDecodePanic) {
		t.Fatalf("outcomes %+v, want one failed with ErrDecodePanic", outs)
	}
}
