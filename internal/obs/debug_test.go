package obs

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestServeDebugEndpoints(t *testing.T) {
	withEnabled(t, func() {
		NewCounter("debugtest.count").Add(3)
	})
	addr, shutdown, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(context.Background())

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var snap Snapshot
	if err := json.Unmarshal(get("/debug/metrics"), &snap); err != nil {
		t.Fatalf("/debug/metrics is not a JSON snapshot: %v", err)
	}
	if snap.Counters["debugtest.count"] != 3 {
		t.Errorf("/debug/metrics counter = %d, want 3", snap.Counters["debugtest.count"])
	}
	if vars := string(get("/debug/vars")); !strings.Contains(vars, "choir_metrics") {
		t.Error("/debug/vars does not publish choir_metrics")
	}
	if idx := string(get("/debug/pprof/")); !strings.Contains(idx, "goroutine") {
		t.Error("/debug/pprof/ index does not list profiles")
	}
}

// TestServeDebugShutdown exercises the lifecycle fix with a real listener:
// after shutdown returns, the port no longer accepts connections and a
// second shutdown call is a harmless no-op.
func TestServeDebugShutdown(t *testing.T) {
	addr, shutdown, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatalf("GET before shutdown: %v", err)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		t.Fatal("debug listener still accepting connections after shutdown")
	}
	if err := shutdown(ctx); err != nil {
		t.Errorf("second shutdown call returned %v, want nil no-op", err)
	}
}
