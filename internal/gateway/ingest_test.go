package gateway

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"choir/internal/trace"
)

// writeTraceFile dumps one synthesized frame to dir as an .iq trace.
func writeTraceFile(t *testing.T, dir, name string, scSeed uint64) string {
	t.Helper()
	h, sig, _ := synthFrame(scSeed)
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteFramed(f, h, sig); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestIngestFilesDirectory pins directory expansion, bad-file error
// collection, and the accepted count.
func TestIngestFilesDirectory(t *testing.T) {
	dir := t.TempDir()
	writeTraceFile(t, dir, "b.iq", 2)
	writeTraceFile(t, dir, "a.iq", 1)
	if err := os.WriteFile(filepath.Join(dir, "junk.iq"), []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ignored.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	g, err := build(Config{Queue: 8})
	if err != nil {
		t.Fatal(err)
	}
	accepted, errs := IngestFiles(context.Background(), g, []string{dir})
	if accepted != 2 {
		t.Errorf("accepted = %d, want 2", accepted)
	}
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "junk.iq") {
		t.Errorf("errs = %v, want one junk.iq decode error", errs)
	}
	done := collectOutcomes(g)
	_ = g.Drain(canceledCtx())
	<-done
}

// TestCaptureFileStreamsAsFrame: a capture file's bytes, sent unchanged
// over the streaming protocol, are one frame whose outcome is the one
// IngestFiles gives the same file — a capture file is a wire frame.
func TestCaptureFileStreamsAsFrame(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "choir", "testdata", "golden", "*.iq"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("golden fixtures: %v (%d found)", err, len(paths))
	}

	ref, err := New(Config{Queue: len(paths), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	refDone := collectOutcomes(ref)
	if n, errs := IngestFiles(context.Background(), ref, paths); n != len(paths) || len(errs) != 0 {
		t.Fatalf("IngestFiles accepted %d of %d: %v", n, len(paths), errs)
	}
	if err := ref.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := <-refDone

	g, err := New(Config{Queue: len(paths), Workers: 1, ConnTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	done := collectOutcomes(g)
	addr, cancel, served := startStreamServer(t, g)
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(raw); err != nil {
			t.Fatal(err)
		}
		reply, err := bufio.NewReader(conn).ReadString('\n')
		conn.Close()
		if err != nil || !strings.HasPrefix(reply, "accepted ") {
			t.Fatalf("%s: reply = %q (%v), want accepted <id>", path, reply, err)
		}
	}
	if err := g.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitServer(t, cancel, served)
	got := <-done

	if len(got) != len(want) {
		t.Fatalf("%d streamed outcomes, %d ingested", len(got), len(want))
	}
	for _, outs := range [][]Outcome{got, want} {
		sort.Slice(outs, func(i, j int) bool { return outs[i].FrameID < outs[j].FrameID })
	}
	decoded := 0
	for i, w := range want {
		o := got[i]
		if o.Kind == OutcomeDecoded {
			decoded++
		}
		if o.Kind != w.Kind || o.Stage != w.Stage || o.Backend != w.Backend || o.Attempts != w.Attempts ||
			o.Users != w.Users || fmt.Sprint(o.Payloads) != fmt.Sprint(w.Payloads) || fmt.Sprint(o.Err) != fmt.Sprint(w.Err) {
			t.Errorf("%s: streamed outcome %+v, ingested %+v", paths[i], o, w)
		}
	}
	if decoded == 0 {
		t.Error("no fixture decoded, so no payload was compared")
	}
}

// TestServeTCPAcceptsTrace pins the wire protocol: one framed trace per
// connection, an "accepted <id>" reply, and a clean ctx-triggered return.
func TestServeTCPAcceptsTrace(t *testing.T) {
	g, err := build(Config{Queue: 8})
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
	h, sig, _ := synthFrame(1)
	if err := trace.WriteFramed(conn, h, sig); err != nil {
		t.Fatal(err)
	}
	reply, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("no reply: %v", err)
	}
	conn.Close()
	if !strings.HasPrefix(reply, "accepted ") {
		t.Fatalf("reply = %q, want accepted <id>", reply)
	}

	// A garbage connection gets an error reply, not a dropped conn.
	conn2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn2.Write([]byte("garbage"))
	if cw, ok := conn2.(*net.TCPConn); ok {
		cw.CloseWrite()
	}
	reply2, err := bufio.NewReader(conn2).ReadString('\n')
	conn2.Close()
	if err != nil || !strings.HasPrefix(reply2, "error: ") {
		t.Fatalf("garbage reply = %q (%v), want error line", reply2, err)
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("ServeTCPStream returned %v on ctx shutdown, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeTCPStream did not return after ctx cancel")
	}
	if st := g.Stats(); st.Accepted != 1 {
		t.Errorf("accepted = %d, want 1", st.Accepted)
	}
	done := collectOutcomes(g)
	_ = g.Drain(canceledCtx())
	<-done
}
