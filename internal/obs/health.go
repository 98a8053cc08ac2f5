package obs

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
)

// Health and readiness checks for the ServeDebug mux. Components register
// named checks (the gateway wires its Healthy/Ready methods here; anything
// else can join); /healthz and /readyz run every registered check and
// report 200 when all pass, 503 with one "name: status" line per check
// otherwise. With no checks registered both endpoints report 200 — a bare
// process is alive and, knowing nothing else, ready.
//
// Checks are plain func() error: nil is passing, non-nil is failing with a
// reason. They run on the probe's request goroutine, so keep them cheap and
// non-blocking (the gateway's are atomic loads).

// checkSet is one named collection of checks (liveness or readiness).
type checkSet struct {
	mu     sync.Mutex
	checks map[string]func() error
}

func (cs *checkSet) register(name string, check func() error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.checks == nil {
		cs.checks = map[string]func() error{}
	}
	cs.checks[name] = check
}

func (cs *checkSet) unregister(name string) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	delete(cs.checks, name)
}

// run evaluates every check, returning pass/fail and a deterministic
// (name-sorted) report body.
func (cs *checkSet) run() (bool, string) {
	cs.mu.Lock()
	names := make([]string, 0, len(cs.checks))
	for name := range cs.checks {
		names = append(names, name)
	}
	checks := make(map[string]func() error, len(cs.checks))
	for name, c := range cs.checks {
		checks[name] = c
	}
	cs.mu.Unlock()
	sort.Strings(names)
	ok := true
	body := ""
	for _, name := range names {
		if err := checks[name](); err != nil {
			ok = false
			body += fmt.Sprintf("%s: %v\n", name, err)
		} else {
			body += fmt.Sprintf("%s: ok\n", name)
		}
	}
	if body == "" {
		body = "ok\n"
	}
	return ok, body
}

// ServeHTTP makes a checkSet an http.Handler: 200 when every check passes,
// 503 otherwise, body listing each check's status either way.
func (cs *checkSet) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	ok, body := cs.run()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !ok {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_, _ = w.Write([]byte(body))
}

var (
	healthChecks checkSet
	readyChecks  checkSet
)

// RegisterHealthCheck adds (or replaces) a named liveness check served at
// /healthz by ServeDebug. A nil check unregisters the name.
func RegisterHealthCheck(name string, check func() error) {
	if check == nil {
		healthChecks.unregister(name)
		return
	}
	healthChecks.register(name, check)
}

// RegisterReadyCheck adds (or replaces) a named readiness check served at
// /readyz by ServeDebug. A nil check unregisters the name.
func RegisterReadyCheck(name string, check func() error) {
	if check == nil {
		readyChecks.unregister(name)
		return
	}
	readyChecks.register(name, check)
}
