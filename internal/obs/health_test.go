package obs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"
)

// probe GETs one path on the debug server and returns status plus body.
func probe(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	cl := http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get(fmt.Sprintf("http://%s%s", addr, path))
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestHealthEndpoints(t *testing.T) {
	defer RegisterHealthCheck("test-live", nil)
	defer RegisterReadyCheck("test-ready", nil)

	addr, shutdown, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = shutdown(ctx)
	}()

	// No checks registered: both endpoints pass by default.
	if code, body := probe(t, addr, "/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Errorf("empty /healthz = %d %q", code, body)
	}
	if code, _ := probe(t, addr, "/readyz"); code != http.StatusOK {
		t.Errorf("empty /readyz = %d", code)
	}

	// Passing checks: 200 with per-check status lines.
	RegisterHealthCheck("test-live", func() error { return nil })
	ready := errors.New("queue saturated")
	var readyErr error
	RegisterReadyCheck("test-ready", func() error { return readyErr })
	if code, body := probe(t, addr, "/healthz"); code != http.StatusOK || body != "test-live: ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := probe(t, addr, "/readyz"); code != http.StatusOK || body != "test-ready: ok\n" {
		t.Errorf("/readyz = %d %q", code, body)
	}

	// A failing readiness check flips /readyz to 503 without touching
	// /healthz.
	readyErr = ready
	if code, body := probe(t, addr, "/readyz"); code != http.StatusServiceUnavailable || body != "test-ready: queue saturated\n" {
		t.Errorf("failing /readyz = %d %q", code, body)
	}
	if code, _ := probe(t, addr, "/healthz"); code != http.StatusOK {
		t.Errorf("/healthz caught readiness failure: %d", code)
	}

	// Recovery flips it back.
	readyErr = nil
	if code, _ := probe(t, addr, "/readyz"); code != http.StatusOK {
		t.Errorf("recovered /readyz = %d", code)
	}
}

func TestHealthzDirect(t *testing.T) {
	defer RegisterHealthCheck("a", nil)
	defer RegisterHealthCheck("b", nil)
	RegisterHealthCheck("b", func() error { return errors.New("down") })
	RegisterHealthCheck("a", func() error { return nil })
	ok, body := healthChecks.run()
	if ok {
		t.Error("failing check reported healthy")
	}
	// Deterministic name-sorted report.
	if body != "a: ok\nb: down\n" {
		t.Errorf("report = %q", body)
	}
	RegisterHealthCheck("b", func() error { return nil })
	if ok, _ := healthChecks.run(); !ok {
		t.Error("all-passing checks reported unhealthy")
	}
}
