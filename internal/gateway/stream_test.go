package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"choir/internal/choir"
	"choir/internal/trace"
)

// framedBytes renders one frame in the streaming wire format.
func framedBytes(t *testing.T, h trace.Header, sig []complex128) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteFramed(&buf, h, sig); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// startStreamServer launches ServeTCPStream for g and returns the listener
// address, a cancel for the server, and the server's error channel.
func startStreamServer(t *testing.T, g *Gateway) (string, context.CancelFunc, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- ServeTCPStream(ctx, g, ln) }()
	return ln.Addr().String(), cancel, served
}

func waitServer(t *testing.T, cancel context.CancelFunc, served <-chan error) {
	t.Helper()
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("stream server returned %v on ctx shutdown, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream server did not return after ctx cancel")
	}
}

// TestStreamIngestMatchesSubmitOutcome pins the streaming tentpole at the
// gateway layer: a frame delivered in two installments over the framed TCP
// protocol — decode starts on the preamble prefix while the tail is still
// in flight — produces the same outcome (stage, backend, users, payload
// bytes) as the same capture submitted whole to a same-seeded gateway.
func TestStreamIngestMatchesSubmitOutcome(t *testing.T) {
	h, sig, _ := synthFrame(1)

	ref, err := New(Config{Queue: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	refDone := collectOutcomes(ref)
	if _, err := ref.Submit(nil, "ref", h, sig); err != nil {
		t.Fatal(err)
	}
	if err := ref.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	refOuts := <-refDone
	if len(refOuts) != 1 || refOuts[0].Kind != OutcomeDecoded {
		t.Fatalf("reference outcome = %+v, want one decode", refOuts)
	}

	g, err := New(Config{Queue: 4, Workers: 1, ConnTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	done := collectOutcomes(g)
	addr, cancel, served := startStreamServer(t, g)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	b := framedBytes(t, h, sig)
	// First installment: the preface plus roughly half the samples. The
	// admission reply must arrive while the rest is still unsent.
	half := len(b) / 2
	if _, err := conn.Write(b[:half]); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	reply, err := br.ReadString('\n')
	if err != nil || !strings.HasPrefix(reply, "accepted ") {
		t.Fatalf("reply = %q (%v), want accepted <id>", reply, err)
	}
	time.Sleep(20 * time.Millisecond) // let the decode start on the prefix
	if _, err := conn.Write(b[half:]); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	if err := g.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitServer(t, cancel, served)
	outs := <-done
	if len(outs) != 1 {
		t.Fatalf("got %d outcomes, want 1", len(outs))
	}
	got, want := outs[0], refOuts[0]
	if got.Kind != want.Kind || got.Stage != want.Stage || got.Backend != want.Backend ||
		got.Attempts != want.Attempts || got.Users != want.Users {
		t.Fatalf("streamed outcome %+v differs from submitted outcome %+v", got, want)
	}
	if len(got.Payloads) != len(want.Payloads) {
		t.Fatalf("payload count %d != %d", len(got.Payloads), len(want.Payloads))
	}
	for i := range want.Payloads {
		if !bytes.Equal(got.Payloads[i], want.Payloads[i]) {
			t.Errorf("payload %d: %x != %x", i, got.Payloads[i], want.Payloads[i])
		}
	}
}

// TestStreamIngestTinyChunks drives the sample copier through its
// partial-sample carry path: the frame arrives in chunks that never align
// with the 16-byte sample boundary.
func TestStreamIngestTinyChunks(t *testing.T) {
	h, sig, _ := synthFrame(2)
	g, err := New(Config{Queue: 4, Workers: 1, ConnTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	done := collectOutcomes(g)
	addr, cancel, served := startStreamServer(t, g)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	b := framedBytes(t, h, sig)
	for off := 0; off < len(b); off += 997 {
		end := min(off+997, len(b))
		if _, err := conn.Write(b[off:end]); err != nil {
			t.Fatal(err)
		}
		if off == 0 {
			// Flush the preface and make sure later writes land as
			// separate reads on the server side at least once.
			time.Sleep(5 * time.Millisecond)
		}
	}
	reply, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil || !strings.HasPrefix(reply, "accepted ") {
		t.Fatalf("reply = %q (%v), want accepted <id>", reply, err)
	}
	conn.Close()

	if err := g.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitServer(t, cancel, served)
	outs := <-done
	if len(outs) != 1 || outs[0].Kind != OutcomeDecoded {
		t.Fatalf("outcomes = %+v, want one decode", outs)
	}
}

// TestStreamIngestMidStreamAbort: a peer that dies mid-frame still costs
// exactly one terminal outcome — failed, typed ErrStreamAborted — and the
// ladder does not walk on to later rungs for a frame that can never complete.
func TestStreamIngestMidStreamAbort(t *testing.T) {
	h, sig, _ := synthFrame(3)
	g, err := New(Config{Queue: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := collectOutcomes(g)
	addr, cancel, served := startStreamServer(t, g)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	b := framedBytes(t, h, sig)
	if _, err := conn.Write(b[:len(b)*2/3]); err != nil {
		t.Fatal(err)
	}
	reply, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil || !strings.HasPrefix(reply, "accepted ") {
		t.Fatalf("reply = %q (%v), want accepted <id>", reply, err)
	}
	conn.Close() // the stream dies with a third of the frame missing

	if err := g.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitServer(t, cancel, served)
	outs := <-done
	if len(outs) != 1 {
		t.Fatalf("got %d outcomes, want 1", len(outs))
	}
	o := outs[0]
	if o.Kind != OutcomeFailed || !errors.Is(o.Err, ErrStreamAborted) {
		t.Fatalf("outcome = %+v, want failed with ErrStreamAborted", o)
	}
	if o.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (no later rung on an aborted stream)", o.Attempts)
	}
}

// TestStreamIngestMalformedPreface: connections with out-of-range length
// prefixes, garbage headers, absurd sample counts or a negative payload
// length get error replies and never reach the queue.
func TestStreamIngestMalformedPreface(t *testing.T) {
	g, err := build(Config{Queue: 4})
	if err != nil {
		t.Fatal(err)
	}
	addr, cancel, served := startStreamServer(t, g)

	send := func(raw []byte) string {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(raw); err != nil {
			t.Fatal(err)
		}
		conn.(*net.TCPConn).CloseWrite()
		reply, err := bufio.NewReader(conn).ReadString('\n')
		if err != nil {
			t.Fatalf("no reply for %x: %v", raw[:min(8, len(raw))], err)
		}
		return reply
	}

	// Header length far past the sanity cap.
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	if r := send(huge); !strings.HasPrefix(r, "error: ") || !strings.Contains(r, "header length") {
		t.Errorf("huge header-length reply = %q", r)
	}
	// Valid length prefix, garbage JSON behind it.
	garbage := append([]byte{7, 0, 0, 0}, []byte("not-json")...)
	if r := send(garbage); !strings.HasPrefix(r, "error: ") {
		t.Errorf("garbage header reply = %q", r)
	}
	// Valid header, zero samples declared.
	h, _, _ := synthFrame(1)
	var fb bytes.Buffer
	if err := trace.WriteFramed(&fb, h, nil); err != nil {
		t.Fatal(err)
	}
	if r := send(fb.Bytes()); !strings.HasPrefix(r, "error: ") || !strings.Contains(r, "sample count") {
		t.Errorf("zero-count reply = %q", r)
	}
	// Negative payload length: refused at the preface, not a decoder panic.
	// Only the preface is sent, so the server reads every byte.
	neg := h
	neg.PayloadLen = -1
	preface := framedBytes(t, neg, []complex128{0})
	if r := send(preface[:len(preface)-16]); !strings.HasPrefix(r, "error: ") || !strings.Contains(r, "payload length out of range: -1 not in [0, 255]") {
		t.Errorf("negative payload reply = %q", r)
	}
	// Truncated length prefix.
	if r := send([]byte{1}); !strings.HasPrefix(r, "error: ") {
		t.Errorf("truncated prefix reply = %q", r)
	}

	waitServer(t, cancel, served)
	if st := g.Stats(); st.Accepted != 0 {
		t.Errorf("accepted = %d, want 0 (malformed prefaces must not enqueue)", st.Accepted)
	}
	done := collectOutcomes(g)
	_ = g.Drain(canceledCtx())
	<-done
}

// TestStreamIngestDrainCutsInFlightWait: a hard drain while a decode is
// parked waiting for samples cancels the wait through the frame's context
// with the decoder's typed cancellation, preserving exactly-one-outcome.
func TestStreamIngestDrainCutsInFlightWait(t *testing.T) {
	h, sig, _ := synthFrame(4)
	g, err := New(Config{Queue: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := collectOutcomes(g)
	addr, cancel, served := startStreamServer(t, g)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	b := framedBytes(t, h, sig)
	// Preface plus a sliver of samples, then silence: the worker's decode
	// blocks inside the stream buffer's wait.
	if _, err := conn.Write(b[:len(b)/4]); err != nil {
		t.Fatal(err)
	}
	reply, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil || !strings.HasPrefix(reply, "accepted ") {
		t.Fatalf("reply = %q (%v), want accepted <id>", reply, err)
	}
	time.Sleep(20 * time.Millisecond) // let the worker park in the wait

	ctx, cancelDrain := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancelDrain()
	if err := g.Drain(ctx); err == nil {
		t.Fatal("drain returned nil, want cut-short error for a stalled stream")
	}
	outs := <-done
	if len(outs) != 1 {
		t.Fatalf("got %d outcomes, want 1", len(outs))
	}
	o := outs[0]
	if o.Kind != OutcomeFailed || !errors.Is(o.Err, choir.ErrCanceled) {
		t.Fatalf("outcome = %+v, want failed with choir.ErrCanceled", o)
	}
	// No ConnTimeout in this config, so the handler is still reading the
	// stalled conn; close it so the server can unwind its WaitGroup.
	conn.Close()
	waitServer(t, cancel, served)
}

// TestStreamIngestRefusesCountBeyondFrame: the stream buffer is allocated
// at the declared sample count before any sample arrives, so a preface
// declaring far more samples than its header's frame is refused with an
// error reply, is not admitted, and costs no allocation of that size.
func TestStreamIngestRefusesCountBeyondFrame(t *testing.T) {
	g, err := build(Config{Queue: 4})
	if err != nil {
		t.Fatal(err)
	}
	addr, cancel, served := startStreamServer(t, g)
	h, _, _ := synthFrame(1)
	preface := framedBytes(t, h, []complex128{0})
	preface = preface[:len(preface)-16-4]
	preface = binary.LittleEndian.AppendUint32(preface, trace.MaxFramedSamples)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(preface); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := bufio.NewReader(conn).ReadString('\n')
	conn.Close()
	runtime.ReadMemStats(&after)
	if err != nil || !strings.HasPrefix(reply, "error: ") || !strings.Contains(reply, "sample count") {
		t.Errorf("reply = %q (%v), want an error naming the sample count", reply, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("the preface cost %d bytes of allocation, want < 1 MiB", grew)
	}

	waitServer(t, cancel, served)
	if st := g.Stats(); st.Accepted != 0 {
		t.Errorf("accepted = %d, want 0", st.Accepted)
	}
	done := collectOutcomes(g)
	_ = g.Drain(canceledCtx())
	<-done
}
