package backend_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"choir/internal/backend"
	"choir/internal/trace"
)

// TestChoirBackendMatchesGoldenReports pins the refactor's central
// bit-identity guarantee: the "choir" backend, driven through the Backend
// interface, must reproduce every pre-refactor golden decode report
// byte for byte. The report text below is rendered exactly as
// internal/choir's golden suite renders it (decodeReport in
// golden_test.go); team_sf8 is excluded because team decoding is not a
// collision backend. If this test diverges while internal/choir's
// TestGoldenTraces still passes, the backend wrapper — not the decoder —
// changed behavior.
func TestChoirBackendMatchesGoldenReports(t *testing.T) {
	dir := filepath.Join("..", "choir", "testdata", "golden")
	for _, name := range []string{
		"single_sf7", "collide2_sf7", "collide3_sf8",
		"fault_interferer_sf7", "fault_drift_sf8",
	} {
		t.Run(name, func(t *testing.T) {
			f, err := os.Open(filepath.Join(dir, name+".iq"))
			if err != nil {
				t.Fatalf("missing fixture: %v", err)
			}
			defer f.Close()
			h, samples, err := trace.Read(f)
			if err != nil {
				t.Fatalf("reading fixture: %v", err)
			}
			want, err := os.ReadFile(filepath.Join(dir, name+".golden"))
			if err != nil {
				t.Fatalf("missing golden report: %v", err)
			}

			var out strings.Builder
			fmt.Fprintf(&out, "trace: %s, %d samples, payload %d bytes, %d ground-truth users\n",
				h.Params.SF, len(samples), h.PayloadLen, len(h.Users))
			truth := map[string]bool{}
			for _, u := range h.Users {
				truth[u] = true
			}
			b := backend.MustNew("choir", h.Params)
			res, err := backend.Decode(context.Background(), b, samples, h.PayloadLen)
			if err != nil {
				fmt.Fprintf(&out, "decode failed: %v\n", err)
			} else {
				correct := 0
				for i, u := range res.Users {
					status := "FAILED"
					if u.Decoded() {
						status = "ok"
						if truth[fmt.Sprintf("%x", u.Payload)] {
							correct++
						} else {
							status = "WRONG PAYLOAD"
						}
					}
					fmt.Fprintf(&out, "user %d: offset %8.3f bins, payload %x (%s)\n",
						i, u.Offset, u.Payload, status)
				}
				fmt.Fprintf(&out, "recovered %d/%d ground-truth payloads\n", correct, len(truth))
			}
			if out.String() != string(want) {
				t.Errorf("choir backend drifted from pre-refactor golden.\n--- got ---\n%s--- want ---\n%s",
					out.String(), want)
			}
		})
	}
}
