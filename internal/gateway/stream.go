package gateway

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"choir/internal/choir"
	"choir/internal/trace"
)

// The streaming protocol's sanity bounds live in internal/trace
// (MaxFramedHeader / MaxFramedSamples): a peer declaring a larger header or
// frame than those is rejected by trace.ReadFramedPreface before any
// allocation happens.

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
			typed := choir.ErrCanceled
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				typed = choir.ErrDeadline
			}
			return fmt.Errorf("%w: %w", typed, ctx.Err())
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
// Config.MaxConns and every read and reply is bounded by Config.ConnTimeout,
// so a stalled or half-open peer cannot pin a handler goroutine forever.
// Returns nil on ctx-triggered shutdown.
//
// Streaming deployments should set ConnTimeout (and/or DecodeTimeout):
// without either, a graceful Drain waits on a peer that goes silent
// mid-frame for as long as the peer stays connected.
func ServeTCPStream(ctx context.Context, g *Gateway, ln net.Listener) error {
	return g.serveConns(ctx, ln, g.handleStreamConn)
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
	if err == nil && g.journal != nil && f.journalState.CompareAndSwap(journalNone, journalAdmitted) {
		// Journal the admit now that the frame is fully delivered (a
		// streamed frame becomes durable at delivery, not at admission —
		// the documented streaming gap). The CAS loses only to emit having
		// already settled the frame terminally, in which case no admit may
		// be written. The symmetric race — decode completing between our
		// CAS and this Append — journals the completion first; the journal's
		// out-of-order pairing absorbs it.
		if jerr := g.journal.Append(f.ID, f.Header, f.Samples); jerr != nil {
			mJournalErrors.Inc()
		}
	}
	sb.complete(err)
}

// readStreamPreface parses the framed protocol's header section through
// trace.ReadFramedPreface, which applies the malformed-length guards before
// anything is allocated.
func (g *Gateway) readStreamPreface(conn net.Conn, br *bufio.Reader) (trace.Header, int, error) {
	if g.cfg.ConnTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(g.cfg.ConnTimeout))
	}
	return trace.ReadFramedPreface(br)
}

// streamSamples copies the connection's sample bytes into the stream
// buffer, publishing progress chunk by chunk so the decode can run ahead of
// delivery. The ConnTimeout deadline is refreshed per chunk — it bounds
// peer silence, not total frame time.
func (g *Gateway) streamSamples(conn net.Conn, br *bufio.Reader, sb *streamBuffer) error {
	var (
		chunk  [8192]byte
		carry  [16]byte
		carryN int
		filled int
	)
	count := len(sb.buf)
	for filled < count {
		if g.cfg.ConnTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(g.cfg.ConnTimeout))
		}
		n, err := br.Read(chunk[:])
		if n > 0 {
			data := chunk[:n]
			start := filled
			if carryN > 0 {
				k := copy(carry[carryN:], data)
				carryN += k
				data = data[k:]
				if carryN == 16 {
					sb.buf[filled] = decodeSample(carry[:])
					filled++
					carryN = 0
				}
			}
			for len(data) >= 16 && filled < count {
				sb.buf[filled] = decodeSample(data)
				filled++
				data = data[16:]
			}
			if filled < count {
				carryN += copy(carry[carryN:], data)
			}
			if filled > start {
				sb.extend(filled - start)
			}
		}
		if err != nil {
			if filled == count {
				return nil
			}
			return fmt.Errorf("gateway: reading samples: %w", err)
		}
	}
	return nil
}

// decodeSample parses one little-endian float64 I/Q pair.
func decodeSample(b []byte) complex128 {
	re := math.Float64frombits(binary.LittleEndian.Uint64(b))
	im := math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	return complex(re, im)
}
