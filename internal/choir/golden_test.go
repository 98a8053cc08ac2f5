package choir_test

// Golden-trace regression suite: small checked-in IQ fixtures decoded
// against checked-in expected reports. The fixtures are synthesized from
// the specs below (fixed seeds, so regeneration is reproducible) and cover
// the decoder's main regimes: a clean single user, two- and three-user
// collisions, a below-noise team frame, and two faulted captures. Any
// change that alters what the decoder extracts from these traces — offsets,
// payloads, error classification — shows up as a golden diff.
//
// Regenerate fixtures and expected reports after an intentional decoder
// change with:
//
//	go test ./internal/choir -run TestGoldenTraces -update
//
// This test lives in package choir_test so it can use the sim synthesizer
// (package sim imports choir, so an internal test would be an import cycle).

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"choir/internal/choir"
	"choir/internal/fault"
	"choir/internal/lora"
	"choir/internal/sim"
	"choir/internal/trace"
)

var update = flag.Bool("update", false, "regenerate golden IQ fixtures and expected reports")

// goldenCase specifies one fixture. Faulted cases bake the corruption into
// the stored IQ — the fixture is the corrupted capture, as if recorded from
// an impaired receiver — so the test itself only ever reads and decodes.
type goldenCase struct {
	name       string
	sf         lora.SpreadingFactor
	users      int
	snrDB      float64
	payloadLen int
	seed       uint64
	team       bool
	faultClass fault.Class
	faultRate  float64
}

var goldenCases = []goldenCase{
	{name: "single_sf7", sf: lora.SF7, users: 1, snrDB: 15, payloadLen: 4, seed: 11},
	{name: "collide2_sf7", sf: lora.SF7, users: 2, snrDB: 15, payloadLen: 4, seed: 22},
	{name: "collide3_sf8", sf: lora.SF8, users: 3, snrDB: 12, payloadLen: 4, seed: 33},
	{name: "team_sf8", sf: lora.SF8, users: 6, snrDB: -10, payloadLen: 4, seed: 44, team: true},
	{name: "fault_interferer_sf7", sf: lora.SF7, users: 2, snrDB: 15, payloadLen: 4, seed: 55,
		faultClass: fault.Interferer, faultRate: 0.3},
	{name: "fault_drift_sf8", sf: lora.SF8, users: 2, snrDB: 15, payloadLen: 4, seed: 66,
		faultClass: fault.DriftStep, faultRate: 0.5},
}

func goldenDir(t *testing.T) string {
	t.Helper()
	return filepath.Join("testdata", "golden")
}

func (c goldenCase) params() lora.Params {
	p := lora.DefaultParams()
	p.SF = c.sf
	return p
}

// synthesize renders the case's IQ and header exactly as choir-gen would,
// then applies any configured fault so the stored fixture is the corrupted
// capture.
func (c goldenCase) synthesize() (trace.Header, []complex128) {
	snrs := make([]float64, c.users)
	for i := range snrs {
		snrs[i] = c.snrDB
	}
	sc := sim.Scenario{
		Params:     c.params(),
		PayloadLen: c.payloadLen,
		SNRsDB:     snrs,
		Identical:  c.team,
		Seed:       c.seed,
	}
	samples, payloads := sc.Synthesize()
	if c.faultRate > 0 {
		inj := fault.MustNew(c.faultClass, c.faultRate)
		samples = inj.Apply(samples, c.seed^0xFA017)
	}
	h := trace.Header{Params: sc.Params, PayloadLen: c.payloadLen}
	for _, p := range payloads {
		h.Users = append(h.Users, fmt.Sprintf("%x", p))
	}
	return h, samples
}

// decodeReport renders the decode outcome as stable text: per-user offsets
// to millibins, payload hex, and truth matching. This is what the .golden
// files pin.
func decodeReport(h trace.Header, samples []complex128, team bool) string {
	var out strings.Builder
	fmt.Fprintf(&out, "trace: %s, %d samples, payload %d bytes, %d ground-truth users\n",
		h.Params.SF, len(samples), h.PayloadLen, len(h.Users))
	truth := map[string]bool{}
	for _, u := range h.Users {
		truth[u] = true
	}
	dec := choir.MustNew(choir.DefaultConfig(h.Params))

	if team {
		res, err := dec.DecodeTeam(context.Background(), samples, h.PayloadLen)
		if err != nil {
			fmt.Fprintf(&out, "decode failed: %v\n", err)
			return out.String()
		}
		status := "FAILED"
		if res.Err == nil {
			status = "ok"
			if !truth[fmt.Sprintf("%x", res.Payload)] {
				status = "WRONG PAYLOAD"
			}
		}
		fmt.Fprintf(&out, "team: %d members detected, payload %x (%s)\n",
			len(res.Offsets), res.Payload, status)
		return out.String()
	}

	res, err := dec.Decode(context.Background(), samples, h.PayloadLen)
	if err != nil {
		fmt.Fprintf(&out, "decode failed: %v\n", err)
		return out.String()
	}
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
	return out.String()
}

func TestGoldenTraces(t *testing.T) {
	dir := goldenDir(t)
	if *update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			iqPath := filepath.Join(dir, c.name+".iq")
			wantPath := filepath.Join(dir, c.name+".golden")

			if *update {
				h, samples := c.synthesize()
				var buf bytes.Buffer
				if err := trace.Write(&buf, h, samples); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(iqPath, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				rep := decodeReport(h, samples, c.team)
				if err := os.WriteFile(wantPath, []byte(rep), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s and %s", iqPath, wantPath)
				return
			}

			f, err := os.Open(iqPath)
			if err != nil {
				t.Fatalf("missing fixture (run with -update to generate): %v", err)
			}
			defer f.Close()
			h, samples, err := trace.Read(f)
			if err != nil {
				t.Fatalf("reading fixture: %v", err)
			}
			want, err := os.ReadFile(wantPath)
			if err != nil {
				t.Fatalf("missing golden report (run with -update to generate): %v", err)
			}
			got := decodeReport(h, samples, c.team)
			if got != string(want) {
				t.Errorf("decode report drifted from golden.\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestGoldenFixturesMatchSpecs regenerates each fixture's IQ from its spec
// and verifies the stored bytes match — catching silent drift in the
// synthesis pipeline (channel, radio population, fault injection) that
// would otherwise invalidate the decode goldens without failing them.
func TestGoldenFixturesMatchSpecs(t *testing.T) {
	if *update {
		t.Skip("fixtures being regenerated")
	}
	if testing.Short() {
		t.Skip("synthesis comparison skipped in -short mode")
	}
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			stored, err := os.ReadFile(filepath.Join(goldenDir(t), c.name+".iq"))
			if err != nil {
				t.Fatalf("missing fixture (run with -update to generate): %v", err)
			}
			h, samples := c.synthesize()
			var buf bytes.Buffer
			if err := trace.Write(&buf, h, samples); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stored, buf.Bytes()) {
				t.Errorf("stored fixture no longer matches its synthesis spec (%d vs %d bytes); regenerate with -update if the synthesis change is intentional",
					len(stored), buf.Len())
			}
		})
	}
}
