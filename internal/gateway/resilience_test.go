package gateway

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"choir/internal/choir"
	"choir/internal/lora"
	"choir/internal/obs"
)

// waitNoLeaks waits for the goroutine count to fall back to baseline.
func waitNoLeaks(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutine leak: %d > baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestServeTCPConnFloodSheds pins the MaxConns satellite: with both handler
// slots pinned by slow peers, a flood of further connections is shed with
// an immediate error reply and a gateway.conn.shed count — no goroutine per
// flooding peer — and everything unwinds leak-free on shutdown.
func TestServeTCPConnFloodSheds(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	baseline := runtime.NumGoroutine()
	shedBefore := mConnShed.Value()

	g, err := build(Config{Queue: 8, MaxConns: 2, ConnTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- ServeTCPStream(ctx, g, ln) }()

	// Pin both slots: peers that connect, send one byte, and stall.
	var held []net.Conn
	for i := 0; i < 2; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write([]byte("{")); err != nil {
			t.Fatal(err)
		}
		held = append(held, c)
	}
	time.Sleep(50 * time.Millisecond) // let both handlers start reading

	// The flood: every additional connection must get a reply line and be
	// closed promptly, whether shed at the cap or (if a race briefly freed
	// a slot) rejected for its garbage payload.
	shedReplies := 0
	for i := 0; i < 6; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(3 * time.Second))
		reply, err := bufio.NewReader(c).ReadString('\n')
		c.Close()
		if err != nil {
			t.Fatalf("flood conn %d: no reply: %v", i, err)
		}
		if strings.Contains(reply, "too many connections") {
			shedReplies++
		}
	}
	if shedReplies == 0 {
		t.Error("no flood connection was shed at the MaxConns cap")
	}
	if got := mConnShed.Value() - shedBefore; got < int64(shedReplies) {
		t.Errorf("gateway.conn.shed rose by %d, want >= %d", got, shedReplies)
	}

	for _, c := range held {
		c.Close()
	}
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("ServeTCPStream returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeTCPStream did not return")
	}
	done := collectOutcomes(g)
	_ = g.Drain(canceledCtx())
	<-done
	waitNoLeaks(t, baseline)
}

// TestServeTCPStalledPeerTimesOut pins the ConnTimeout satellite: a peer
// that connects and then goes silent (the half-open shape) is cut loose by
// the read deadline with an error reply instead of pinning its handler
// goroutine forever.
func TestServeTCPStalledPeerTimesOut(t *testing.T) {
	baseline := runtime.NumGoroutine()
	g, err := build(Config{Queue: 4, ConnTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- ServeTCPStream(ctx, g, ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// Say nothing. The handler's read deadline must fire and reply.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := bufio.NewReader(conn).ReadString('\n')
	conn.Close()
	if err != nil {
		t.Fatalf("stalled peer never got a reply: %v", err)
	}
	if !strings.HasPrefix(reply, "error: ") {
		t.Fatalf("reply = %q, want timeout error line", reply)
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("ServeTCPStream returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeTCPStream did not return")
	}
	done := collectOutcomes(g)
	_ = g.Drain(canceledCtx())
	<-done
	waitNoLeaks(t, baseline)
}

// TestIngestFilesEmptyDirErrNoTraces pins the distinct "directory exists
// but holds no traces" error.
func TestIngestFilesEmptyDirErrNoTraces(t *testing.T) {
	g, err := build(Config{Queue: 4})
	if err != nil {
		t.Fatal(err)
	}
	accepted, errs := IngestFiles(context.Background(), g, []string{t.TempDir()})
	if accepted != 0 {
		t.Errorf("accepted = %d, want 0", accepted)
	}
	if len(errs) != 1 {
		t.Fatalf("errs = %v, want exactly one", errs)
	}
	if !errors.Is(errs[0], ErrNoTraces) {
		t.Errorf("errs = %v, want ErrNoTraces", errs)
	}
	done := collectOutcomes(g)
	_ = g.Drain(canceledCtx())
	<-done
}

// TestDecodeTimeoutBoundsEachAttempt pins DecodeTimeout's semantics: the
// budget belongs to one attempt of one frame. With a budget nothing can meet
// and six frames queued before the lone worker starts, every frame still
// walks all three rungs and every attempt dies on its own deadline — no
// frame inherits a neighbour's expired budget as a cancellation.
func TestDecodeTimeoutBoundsEachAttempt(t *testing.T) {
	g, err := build(Config{
		Queue: 8, Workers: 1, Seed: 77,
		DecodeTimeout: time.Nanosecond, BreakerThreshold: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	for i := 0; i < n; i++ {
		h, sig, _ := synthFrame(uint64(i + 1))
		if _, err := g.Submit(nil, fmt.Sprintf("frame-%d", i), h, sig); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	done := collectOutcomes(g)
	g.start()
	if err := g.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	outs := <-done
	if len(outs) != n {
		t.Fatalf("%d outcomes, want %d", len(outs), n)
	}
	for _, o := range outs {
		if o.Kind != OutcomeFailed || o.Attempts != 3 || !errors.Is(o.Err, choir.ErrDeadline) {
			t.Errorf("frame %d: kind %v after %d attempt(s), err %v; want failed after 3 on choir.ErrDeadline",
				o.FrameID, o.Kind, o.Attempts, o.Err)
		}
	}
}

// TestBreakerSkippedFrameFailsInsideTaxonomy pins the one OutcomeFailed that
// no decode attempt stands behind. With a threshold of one failure and a
// cooldown longer than the test, an undecodable first frame trips every
// rung's breaker on its way down the ladder, and the next frame — decodable,
// but never tried — is skipped by all three: it must fail after zero
// attempts with a cause errors.Is can name.
func TestBreakerSkippedFrameFailsInsideTaxonomy(t *testing.T) {
	g, err := build(Config{
		Queue: 4, Workers: 1, Seed: 78,
		BreakerThreshold: 1, BreakerCooldown: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, sig, _ := synthFrame(1)
	if _, err := g.Submit(nil, "undecodable", h, make([]complex128, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Submit(nil, "skipped", h, sig); err != nil {
		t.Fatal(err)
	}
	done := collectOutcomes(g)
	g.start()
	if err := g.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	outs := <-done
	if len(outs) != 2 {
		t.Fatalf("%d outcomes, want 2", len(outs))
	}
	if o := outs[0]; o.Kind != OutcomeFailed || o.Attempts != 3 || !errors.Is(o.Err, lora.ErrShortSignal) {
		t.Errorf("first frame: kind %v after %d attempt(s), err %v; want failed after 3 on lora.ErrShortSignal",
			o.Kind, o.Attempts, o.Err)
	}
	for stage := range g.Ladder() {
		if !g.breakerTripped(Stage(stage)) {
			t.Errorf("rung %d's breaker did not trip", stage)
		}
	}
	if o := outs[1]; o.Kind != OutcomeFailed || o.Attempts != 0 ||
		!errors.Is(o.Err, ErrLadderExhausted) || !errors.Is(o.Err, ErrBreakersOpen) {
		t.Errorf("second frame: kind %v after %d attempt(s), err %v; want failed after 0 on ErrLadderExhausted and ErrBreakersOpen",
			o.Kind, o.Attempts, o.Err)
	}
}
