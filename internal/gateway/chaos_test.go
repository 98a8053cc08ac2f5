package gateway

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"choir/internal/choir"
	"choir/internal/fault"
	"choir/internal/lora"
	"choir/internal/trace"
)

// chaosLadder returns the decode ladder for the chaos soak. CI soaks every
// registered backend individually by setting CHOIR_CHAOS_LADDER to a
// comma-separated rung list (e.g. "superposed" or "slotshift,strongest");
// unset, the soak runs the default ladder.
func chaosLadder(t *testing.T) []string {
	v := os.Getenv("CHOIR_CHAOS_LADDER")
	if v == "" {
		return nil // Config default
	}
	ladder := strings.Split(v, ",")
	t.Logf("chaos ladder from CHOIR_CHAOS_LADDER: %v", ladder)
	return ladder
}

// chaosFixture is one pre-loaded golden capture.
type chaosFixture struct {
	h       trace.Header
	samples []complex128
}

// loadChaosFixtures reads the golden fixtures up front so fixture I/O is
// outside any goroutine-leak baseline.
func loadChaosFixtures(t *testing.T) []chaosFixture {
	t.Helper()
	dir := filepath.Join("..", "choir", "testdata", "golden")
	names, err := filepath.Glob(filepath.Join(dir, "*.iq"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no golden fixtures in %s: %v", dir, err)
	}
	var fixtures []chaosFixture
	for _, name := range names {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		h, samples, err := trace.Read(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fixtures = append(fixtures, chaosFixture{h, samples})
	}
	return fixtures
}

// TestChaosGatewaySmoke is the chaos soak: golden fixtures corrupted by a
// fault chain, deliberately malformed frames, a tiny queue under
// drop-oldest shedding, and a mid-run hard stop. The gateway must survive
// with zero panics, account for every accepted frame with exactly one
// terminal outcome, surface only taxonomy-typed errors, and leak no
// goroutines — whatever backend ladder it runs (see chaosLadder). Its one
// leg keeps the name "serial": that is the name the CHANGES.md coverage
// notes of the removed batch tests point at.
func TestChaosGatewaySmoke(t *testing.T) {
	t.Run("serial", runChaosSmoke)
}

// mustInject is fault.New for the tests' fixed, valid injector settings.
func mustInject(class fault.Class, intensity float64) *fault.Injector {
	inj, err := fault.New(class, intensity)
	if err != nil {
		panic(err)
	}
	return inj
}

// chaosFaults corrupts a frame with saturation, a drift step and dropped
// bursts, in that order, each on its own sub-seed of seed (the golden-ratio
// stride keeps them distinct).
func chaosFaults(samples []complex128, seed uint64) []complex128 {
	for i, inj := range []*fault.Injector{
		mustInject(fault.Clip, 0.6),
		mustInject(fault.DriftStep, 0.5),
		mustInject(fault.DropBurst, 0.4),
	} {
		samples = inj.Apply(samples, seed+uint64(i+1)*0x9E3779B97F4A7C15)
	}
	return samples
}

func runChaosSmoke(t *testing.T) {
	fixtures := loadChaosFixtures(t)

	baseline := runtime.NumGoroutine()

	g, err := New(Config{
		Queue:         2,
		Policy:        ShedDropOldest,
		Workers:       2,
		DecodeTimeout: 5 * time.Second,
		Ladder:        chaosLadder(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	done := collectOutcomes(g)

	const frames = 30
	accepted := 0
	for i := 0; i < frames; i++ {
		fx := fixtures[i%len(fixtures)]
		samples := chaosFaults(append([]complex128(nil), fx.samples...), uint64(i)*0x9E37+1)
		h := fx.h
		switch i % 10 {
		case 7:
			// Malformed: too short for even one preamble symbol.
			samples = samples[:8]
		case 8:
			// Malformed: non-finite IQ.
			samples[len(samples)/2] = complex(math.NaN(), 0)
		case 9:
			// Malformed: rail-pinned beyond the saturation gate.
			peak := 0.0
			for _, s := range samples {
				peak = math.Max(peak, cmplx.Abs(s))
			}
			for j := range samples {
				samples[j] = complex(peak, peak)
			}
		}
		if _, err := g.Submit(nil, fmt.Sprintf("chaos-%d", i), h, samples); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		accepted++
	}

	// Hard stop mid-run: the drain deadline fires long before 30 frames of
	// triple-fault decode work can finish.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_ = g.Drain(ctx)
	outs := <-done

	if len(outs) != accepted {
		t.Fatalf("got %d outcomes for %d accepted frames", len(outs), accepted)
	}
	st := g.Stats()
	if st.Accepted != int64(accepted) || st.Decoded+st.Failed+st.Shed != int64(accepted) {
		t.Errorf("stats do not balance against accepted frames: %+v", st)
	}
	seen := map[uint64]bool{}
	for _, o := range outs {
		if seen[o.FrameID] {
			t.Errorf("frame %d has two terminal outcomes", o.FrameID)
		}
		seen[o.FrameID] = true
		switch o.Kind {
		case OutcomeDecoded:
			if len(o.Payloads) == 0 {
				t.Errorf("frame %d decoded with no payloads", o.FrameID)
			}
		case OutcomeShed:
			if !errors.Is(o.Err, ErrShed) {
				t.Errorf("frame %d shed with untyped error: %v", o.FrameID, o.Err)
			}
		case OutcomeFailed:
			if !errors.Is(o.Err, ErrLadderExhausted) && !errors.Is(o.Err, choir.ErrCanceled) {
				t.Errorf("frame %d failed outside the taxonomy: %v", o.FrameID, o.Err)
				continue
			}
			if errors.Is(o.Err, ErrLadderExhausted) && !typedCause(o.Err) {
				t.Errorf("frame %d exhausted the ladder with an untyped cause: %v", o.FrameID, o.Err)
			}
		default:
			t.Errorf("frame %d has unknown outcome kind %v", o.FrameID, o.Kind)
		}
	}

	// No goroutine leaks: everything the gateway started must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutine leak: %d > baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// typedCause reports whether err wraps one of the decode-error taxonomy
// sentinels (or a gateway-layer typed error).
func typedCause(err error) bool {
	for _, sentinel := range []error{
		choir.ErrBadIQ,
		choir.ErrSaturated,
		choir.ErrTrackingLost,
		choir.ErrNoUsers,
		choir.ErrNotDetected,
		choir.ErrCanceled,
		choir.ErrDeadline,
		lora.ErrShortSignal,
		lora.ErrCRC,
		ErrNoPayloads,
		ErrDecodePanic,
		ErrStreamAborted,
	} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}

// TestChaosStreamingIngest soaks the framed streaming path with the same
// adversarial mix: corrupted fixtures, peers that die mid-frame, malformed
// length prefixes, a tiny drop-oldest queue, and the chaosLadder backend
// loop. Every accepted frame must still get exactly one taxonomy-typed
// terminal outcome and nothing may leak.
func TestChaosStreamingIngest(t *testing.T) {
	fixtures := loadChaosFixtures(t)
	baseline := runtime.NumGoroutine()

	g, err := New(Config{
		Queue:         2,
		Policy:        ShedDropOldest,
		Workers:       2,
		DecodeTimeout: 5 * time.Second,
		ConnTimeout:   2 * time.Second,
		Ladder:        chaosLadder(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	done := collectOutcomes(g)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- ServeTCPStream(ctx, g, ln) }()

	const conns = 20
	accepted := 0
	for i := 0; i < conns; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if i%5 == 4 {
			// Malformed length prefix: must get an error reply, no frame.
			conn.Write([]byte{0xff, 0xff, 0xff, 0xff})
			conn.SetReadDeadline(time.Now().Add(3 * time.Second))
			if reply, err := bufio.NewReader(conn).ReadString('\n'); err != nil || !strings.HasPrefix(reply, "error: ") {
				t.Errorf("conn %d: malformed prefix reply %q (%v)", i, reply, err)
			}
			conn.Close()
			continue
		}
		fx := fixtures[i%len(fixtures)]
		samples := chaosFaults(append([]complex128(nil), fx.samples...), uint64(i)*0x9E37+1)
		var fb bytes.Buffer
		if err := trace.WriteFramed(&fb, fx.h, samples); err != nil {
			t.Fatal(err)
		}
		b := fb.Bytes()
		cut := len(b)
		if i%5 == 3 {
			// This peer will die with a third of the frame missing.
			cut = len(b) * 2 / 3
		}
		if _, err := conn.Write(b[:cut]); err != nil {
			t.Fatalf("conn %d: write: %v", i, err)
		}
		conn.SetReadDeadline(time.Now().Add(3 * time.Second))
		reply, err := bufio.NewReader(conn).ReadString('\n')
		if err != nil {
			t.Fatalf("conn %d: no reply: %v", i, err)
		}
		if strings.HasPrefix(reply, "accepted ") {
			accepted++
		}
		conn.Close()
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("stream server returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream server did not return")
	}
	if err := g.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	outs := <-done

	if len(outs) != accepted {
		t.Fatalf("got %d outcomes for %d accepted frames", len(outs), accepted)
	}
	st := g.Stats()
	if st.Accepted != int64(accepted) || st.Decoded+st.Failed+st.Shed != int64(accepted) {
		t.Errorf("stats do not balance against accepted frames: %+v", st)
	}
	seen := map[uint64]bool{}
	for _, o := range outs {
		if seen[o.FrameID] {
			t.Errorf("frame %d has two terminal outcomes", o.FrameID)
		}
		seen[o.FrameID] = true
		switch o.Kind {
		case OutcomeDecoded:
			if len(o.Payloads) == 0 {
				t.Errorf("frame %d decoded with no payloads", o.FrameID)
			}
		case OutcomeShed:
			if !errors.Is(o.Err, ErrShed) {
				t.Errorf("frame %d shed with untyped error: %v", o.FrameID, o.Err)
			}
		case OutcomeFailed:
			if !errors.Is(o.Err, ErrLadderExhausted) && !errors.Is(o.Err, choir.ErrCanceled) {
				t.Errorf("frame %d failed outside the taxonomy: %v", o.FrameID, o.Err)
				continue
			}
			if errors.Is(o.Err, ErrLadderExhausted) && !typedCause(o.Err) {
				t.Errorf("frame %d exhausted the ladder with an untyped cause: %v", o.FrameID, o.Err)
			}
		default:
			t.Errorf("frame %d has unknown outcome kind %v", o.FrameID, o.Kind)
		}
	}
	waitNoLeaks(t, baseline)
}
