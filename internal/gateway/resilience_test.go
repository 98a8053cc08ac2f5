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
	g, err := build(Config{Queue: 8, Workers: 1, DecodeTimeout: time.Nanosecond})
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

// TestShutdownMidDecodeNoLeak pins the hard drain of a worker caught inside
// the ladder: a streamed frame whose samples stop arriving halfway parks the
// worker in a decode that only the gateway context can end. A hard drain must
// cut through it promptly, the frame must get its one terminal outcome
// (failed, canceled, after its one attempt), and no goroutine may outlive the
// drain.
func TestShutdownMidDecodeNoLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	g, err := build(Config{Queue: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	h, sig, _ := synthFrame(1)
	sb := newStreamBuffer(len(sig))
	sb.extend(copy(sb.buf, sig[:len(sig)/2]))
	if _, err := g.submitFrame(nil, &Frame{Source: "parked", Header: h, Samples: sb.buf, stream: sb}); err != nil {
		t.Fatal(err)
	}
	done := collectOutcomes(g)
	g.start()
	<-g.space // the worker's post-dequeue pulse: the frame is in the ladder

	start := time.Now()
	_ = g.Drain(canceledCtx())
	if waited := time.Since(start); waited > 10*time.Second {
		t.Errorf("hard drain took %v with a worker parked mid-decode", waited)
	}
	outs := <-done
	if len(outs) != 1 {
		t.Fatalf("%d outcomes for 1 accepted frame", len(outs))
	}
	if o := outs[0]; o.Kind != OutcomeFailed || o.Attempts != 1 || !errors.Is(o.Err, choir.ErrCanceled) {
		t.Errorf("parked frame: kind %v after %d attempt(s), err %v; want failed+canceled after 1",
			o.Kind, o.Attempts, o.Err)
	}
	waitNoLeaks(t, baseline)
}
