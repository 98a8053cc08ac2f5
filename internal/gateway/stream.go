package gateway

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"choir/internal/choir"
	"choir/internal/ctxutil"
	"choir/internal/trace"
)

// The streaming protocol's sanity bounds live in internal/trace
// (MaxFramedHeader / MaxFramedSamples): a peer declaring a larger header or
// frame than those is rejected by trace.ReadFramedPreface before any
// allocation happens. readStreamPreface also holds the sample count to the
// header's own frame.

// streamBuffer coordinates one streaming frame between the connection
// handler filling the backing array front to back and the decode worker
// consuming it through the choir.AvailFunc contract. The writer publishes
// progress under the mutex — that hand-off is the happens-before edge that
// makes buf[:have] stable for the reader — while the regions beyond have
// stay exclusively the writer's. The pulse channel supports the single
// waiter the gateway has per frame (one worker decodes a frame at a time;
// its ladder rungs run one after another in that same goroutine).
type streamBuffer struct {
	buf []complex128

	mu     sync.Mutex
	have   int
	done   bool
	err    error // terminal abort, wrapping ErrStreamAborted
	notify chan struct{}
}

func newStreamBuffer(n int) *streamBuffer {
	return &streamBuffer{buf: make([]complex128, n), notify: make(chan struct{}, 1)}
}

func (s *streamBuffer) wake() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// extend publishes n more completed samples. The writer must be done
// writing buf[have : have+n] before calling.
func (s *streamBuffer) extend(n int) {
	s.mu.Lock()
	s.have += n
	s.mu.Unlock()
	s.wake()
}

// complete marks the stream finished. A cause (or a close) before the full
// frame arrived becomes the buffer's terminal ErrStreamAborted; a failure
// after the last sample is irrelevant to the decode and is dropped.
func (s *streamBuffer) complete(cause error) {
	s.mu.Lock()
	if !s.done {
		s.done = true
		if s.have < len(s.buf) {
			if cause == nil {
				cause = io.ErrUnexpectedEOF
			}
			s.err = fmt.Errorf("%w: %v (%d/%d samples)", ErrStreamAborted, cause, s.have, len(s.buf))
		}
	}
	s.mu.Unlock()
	s.wake()
}

// Avail implements choir.AvailFunc for the frame: it blocks until buf[:need]
// is complete, the stream aborts, or ctx fires.
func (s *streamBuffer) Avail(ctx context.Context, need int) error {
	for {
		s.mu.Lock()
		have, done, err := s.have, s.done, s.err
		s.mu.Unlock()
		if have >= need {
			return nil
		}
		if done {
			if err == nil {
				// complete() guarantees an error when the frame is short;
				// keep a typed failure even if that ever changes.
				err = fmt.Errorf("%w: stream ended at %d/%d samples", ErrStreamAborted, have, need)
			}
			return err
		}
		select {
		case <-ctx.Done():
			// Type the wait's cancellation like the decoder's own stage
			// polls would, so streamed frames fail inside the same taxonomy
			// as everything else.
			return choir.ContextErr(ctx)
		case <-s.notify:
		}
	}
}

// ServeTCPStream accepts connections speaking the framed streaming
// protocol — a little-endian uint32 header length, the JSON trace header, a
// little-endian uint32 sample count, then the samples as little-endian
// float64 I/Q pairs (trace.WriteFramed emits it) — and submits each frame
// as soon as its header arrives, so preamble detection overlaps the network
// still delivering data symbols. The peer gets "accepted <id>\n" right
// after admission (or "error: <reason>\n"), then keeps streaming samples; a
// connection that dies or stalls past Config.ConnTimeout mid-frame aborts
// the in-flight decode with ErrStreamAborted, which still yields the
// frame's single terminal outcome. Concurrent connections are capped at
// Config.MaxConns (overflow gets an error reply and counts on
// gateway.conn.shed) and every read and reply is bounded by
// Config.ConnTimeout, so a stalled or half-open peer cannot pin a handler
// goroutine forever. Returns nil on ctx-triggered shutdown, once every
// handler has returned.
//
// Streaming deployments should set ConnTimeout (and/or DecodeTimeout):
// without either, a graceful Drain waits on a peer that goes silent
// mid-frame for as long as the peer stays connected.
func ServeTCPStream(ctx context.Context, g *Gateway, ln net.Listener) error {
	ctx = ctxutil.Background(ctx)
	// Closing the listener is the only portable way to unblock Accept.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
		case <-stop:
		}
		ln.Close()
	}()
	sem := make(chan struct{}, g.cfg.MaxConns)
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("gateway: accept: %w", err)
		}
		select {
		case sem <- struct{}{}:
		default:
			// At the connection cap: shed immediately instead of spawning
			// an unbounded goroutine per peer during a flood.
			mConnShed.Inc()
			g.reply(conn, "error: too many connections\n")
			conn.Close()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			defer conn.Close()
			g.handleStreamConn(ctx, conn)
		}()
	}
}

// handleStreamConn services one framed streaming connection.
func (g *Gateway) handleStreamConn(ctx context.Context, conn net.Conn) {
	br := bufio.NewReader(conn)
	h, count, err := g.readStreamPreface(conn, br)
	if err != nil {
		g.reply(conn, "error: %v\n", err)
		return
	}
	sb := newStreamBuffer(count)
	f := &Frame{
		Source:  conn.RemoteAddr().String(),
		Header:  h,
		Samples: sb.buf,
		stream:  sb,
	}
	id, err := g.submitFrame(ctx, f)
	if err != nil {
		g.reply(conn, "error: %v\n", err)
		return
	}
	// Acknowledge admission before the samples finish: the decode is
	// already eligible to start on the preamble prefix.
	g.reply(conn, "accepted %d\n", id)
	err = g.streamSamples(conn, br, sb)
	if err == nil {
		// A streamed frame becomes durable at delivery, not at admission
		// (the documented streaming gap). A failed append is counted on
		// gateway.journal.errors; the decode goes on.
		_ = g.journalAdmit(f)
	}
	sb.complete(err)
}

// streamSlackSymbols is how many whole symbols a streamed capture may run
// past its header's frame (a synthesized capture carries one symbol of
// tail). The stream buffer is allocated at the declared count before any
// sample arrives, so a count beyond the frame and this slack is refused at
// the preface instead.
const streamSlackSymbols = 2

// readStreamPreface parses the framed protocol's header section through
// trace.ReadFramedPreface, which applies the malformed-length guards before
// anything is allocated, and refuses a sample count the header's frame
// cannot account for. A shorter count is admitted and fails its decode.
func (g *Gateway) readStreamPreface(conn net.Conn, br *bufio.Reader) (trace.Header, int, error) {
	if g.cfg.ConnTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(g.cfg.ConnTimeout))
	}
	h, count, err := trace.ReadFramedPreface(br)
	if err != nil {
		return trace.Header{}, 0, err
	}
	if limit := h.Params.FrameSamples(h.PayloadLen) + streamSlackSymbols*h.Params.N(); count > limit {
		return trace.Header{}, 0, fmt.Errorf("%w: sample count %d exceeds the header's frame plus %d symbols (%d samples)",
			trace.ErrFramedTooLarge, count, streamSlackSymbols, limit)
	}
	return h, count, nil
}

// streamSamples copies the connection's sample bytes into the stream
// buffer, publishing progress read by read so the decode can run ahead of
// delivery. The ConnTimeout deadline is refreshed per read — it bounds
// peer silence, not total frame time.
func (g *Gateway) streamSamples(conn net.Conn, br *bufio.Reader, sb *streamBuffer) error {
	refresh := func() {
		if g.cfg.ConnTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(g.cfg.ConnTimeout))
		}
	}
	refresh()
	_, err := trace.ReadSamples(br, sb.buf, func(n int) {
		if n > 0 {
			sb.extend(n)
		}
		refresh()
	})
	if err != nil {
		return fmt.Errorf("gateway: reading samples: %w", err)
	}
	return nil
}
