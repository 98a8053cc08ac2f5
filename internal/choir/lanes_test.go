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

// kernelRuns are the kernel sets a decode test runs: the CPU's (the AVX2
// kernels where the CPU has AVX2) and the generic Go kernels, forced.
var kernelRuns = []struct {
	name string
	use  func() (restore func())
}{
	{"the CPU's kernels", func() func() { return func() {} }},
	{"the generic kernels", choir.UseGenericKernels},
}

// TestLaneCountEquivalence decodes every golden fixture and every decision
// cell at GOMAXPROCS 1, 2 and 4 — a decode fans its window loops out over
// min(GOMAXPROCS, windows) − 1 helper lanes — and holds each result to a
// fresh decoder's at GOMAXPROCS 1, bit for bit. One decoder per frame serves
// all three counts, so it also grows lanes between decodes. The three
// decodes run a second time with the generic kernels forced, held to the
// same reference from the CPU's kernels: the AVX2 kernels are exact-order
// (DESIGN.md §12).
func TestLaneCountEquivalence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, fr := range laneFrames(t) {
		t.Run(fr.name, func(t *testing.T) {
			cfg := choir.DefaultConfig(fr.p)
			runtime.GOMAXPROCS(1)
			want, wantErr := choir.MustNew(cfg).Decode(context.Background(), fr.samples, fr.payloadLen)
			d := choir.MustNew(cfg)
			for _, k := range kernelRuns {
				func() {
					defer k.use()()
					for _, procs := range []int{1, 2, 4} {
						runtime.GOMAXPROCS(procs)
						got, err := d.Decode(context.Background(), fr.samples, fr.payloadLen)
						if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
							t.Fatalf("%s, GOMAXPROCS %d: err %v, want %v", k.name, procs, err, wantErr)
						}
						if err == nil {
							choir.AssertSameResult(t, got, want)
						}
						if t.Failed() {
							t.Fatalf("with %s at GOMAXPROCS %d", k.name, procs)
						}
					}
				}()
			}
		})
	}
}

// TestStageCountsIndependentOfLanes decodes every golden fixture with
// metrics on at GOMAXPROCS 1, 2 and 4: helper lanes record stage calls and
// counters of their own, so each choir.* counter and the count of each
// choir.* histogram (the stage clock's choir.stage.*_ns among them) must come
// out the same at every width. Histogram sums are timings and are not
// compared.
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
				t.Fatal("no choir.stage.fft_ns call recorded at GOMAXPROCS 1")
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

// TestStageTimesAddUp decodes every golden fixture with metrics on at
// GOMAXPROCS 1, 2 and 4, on one decoder per fixture so that lanes are built
// and then reused: every nanosecond a lane works is charged to exactly one
// stage, so the choir.stage.*_ns sums, other included, must add up to the
// decode's choir.decode_busy_ns exactly, and none may be negative.
func TestStageTimesAddUp(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	obs.Enable()
	defer obs.Disable()
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			h, samples := readTrace(t, filepath.Join("testdata", "golden", c.name+".iq"))
			d := choir.MustNew(choir.DefaultConfig(h.Params))
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				obs.Reset()
				if c.team {
					d.DecodeTeam(context.Background(), samples, h.PayloadLen)
				} else {
					d.Decode(context.Background(), samples, h.PayloadLen)
				}
				snap := obs.TakeSnapshot()
				var stages int64
				for name, hs := range snap.Histograms {
					if !strings.HasPrefix(name, "choir.stage.") {
						continue
					}
					if hs.Sum < 0 {
						t.Errorf("GOMAXPROCS %d: %s sums to %d ns", procs, name, hs.Sum)
					}
					stages += hs.Sum
				}
				busy := snap.Histograms["choir.decode_busy_ns"]
				if busy.Count != 1 || snap.Histograms["choir.stage.other_ns"].Count != 1 {
					t.Fatalf("GOMAXPROCS %d: %d busy and %d other records, want one each", procs, busy.Count, snap.Histograms["choir.stage.other_ns"].Count)
				}
				if stages != busy.Sum {
					t.Errorf("GOMAXPROCS %d: stage times sum to %d ns, busy time is %d ns", procs, stages, busy.Sum)
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
