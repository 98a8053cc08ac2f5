package choir_test

// Decision golden: what the decoder decides — users, symbols, payloads,
// error classes, offsets to the millibin — on the twelve collision shapes of
// the repository benchmark's gw_heavy_closed pool (SF7-SF10, 1-6 users,
// 8-byte payloads, user k at 14+2.5·k dB). It is the contract for kernels
// that are decision-preserving but not bit-identical (DESIGN.md §12): the
// file was generated with the per-sample math.Sincos / padded-FFT /
// dividing kernels and is never regenerated for a kernel change. A diff here
// means a symbol decision flipped, which is a bug, not rounding noise.
//
// The signals are synthesised in-test from fixed seeds; no IQ is stored.
// Regenerate only after an intentional change of decoder behaviour:
//
//	go test ./internal/choir -run TestDecisionGolden -update
//
// The golden pins two renderings per cell. A kernel change is also held to a
// wider diff against its parent commit, which needs no golden: write the
// reports of N renderings per cell from each tree and compare the files —
//
//	go test ./internal/choir -run TestDecisionGolden -decision-variants 12 -decisions-out /tmp/parent.txt   # in the parent's tree
//	go test ./internal/choir -run TestDecisionGolden -decision-variants 12 -decisions-out /tmp/change.txt   # in the change's
//	diff /tmp/parent.txt /tmp/change.txt
//
// (this file builds unmodified against any commit that has the golden: copy
// it over the parent's).

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"choir/internal/choir"
	"choir/internal/lora"
	"choir/internal/sim"
)

var decisionCells = []struct{ sf, users int }{
	{7, 1}, {7, 2}, {7, 3}, {8, 2}, {8, 3}, {8, 4}, {8, 6}, {9, 1}, {9, 2}, {9, 4}, {10, 1}, {10, 2},
}

// goldenVariants is how many seeded renderings of each cell the golden pins;
// -short checks the first only.
const goldenVariants = 2

var (
	decisionVariants = flag.Int("decision-variants", goldenVariants, "seeded renderings decoded per decision cell; more than the golden's need -decisions-out")
	decisionsOut     = flag.String("decisions-out", "", "write the concatenated decision reports to this file instead of comparing them with the golden")
)

func errorClass(u *choir.User) string {
	switch {
	case u.Decoded():
		return "ok"
	case errors.Is(u.Err, choir.ErrTrackingLost):
		return "tracking_lost"
	case errors.Is(u.Err, lora.ErrCRC):
		return "crc"
	default:
		return "undecodable"
	}
}

// decisionFrame synthesises one rendering of a cell: user k at 14+2.5·k dB,
// 8-byte payloads.
func decisionFrame(sf, users, variant int) (sim.Scenario, []complex128, [][]byte) {
	p := lora.DefaultParams()
	p.SF = lora.SpreadingFactor(sf)
	snrs := make([]float64, users)
	for k := range snrs {
		snrs[k] = 14 + 2.5*float64(k)
	}
	const payloadLen = 8
	sc := sim.Scenario{Params: p, PayloadLen: payloadLen, SNRsDB: snrs,
		Seed: uint64(1000*sf + 10*users + variant)}
	samples, payloads := sc.Synthesize()
	return sc, samples, payloads
}

// decisionReport decodes one rendering of a cell and prints every decision.
func decisionReport(sf, users, variant int) string {
	sc, samples, payloads := decisionFrame(sf, users, variant)
	p, payloadLen := sc.Params, sc.PayloadLen
	truth := map[string]bool{}
	for _, pl := range payloads {
		truth[fmt.Sprintf("%x", pl)] = true
	}

	var out strings.Builder
	fmt.Fprintf(&out, "sf%du%d v%d seed %d\n", sf, users, variant, sc.Seed)
	dec := choir.MustNew(choir.DefaultConfig(p))
	res, err := dec.Decode(context.Background(), samples, payloadLen)
	if err != nil {
		fmt.Fprintf(&out, "  decode failed: %v\n", err)
		return out.String()
	}
	for i, u := range res.Users {
		sent := "sent"
		if !truth[fmt.Sprintf("%x", u.Payload)] {
			sent = "not sent"
		}
		fmt.Fprintf(&out, "  user %d: offset %.3f, %s, payload %x (%s), symbols %v\n",
			i, u.Offset, errorClass(u), u.Payload, sent, u.Symbols)
	}
	return out.String()
}

func TestDecisionGolden(t *testing.T) {
	path := filepath.Join("testdata", "golden", "decisions.golden")
	variants := *decisionVariants
	if *decisionsOut == "" {
		if variants != goldenVariants {
			t.Fatalf("-decision-variants %d: the golden pins %d per cell; other counts need -decisions-out", variants, goldenVariants)
		}
		if testing.Short() && !*update {
			variants = 1
		}
	}
	var reports []string
	for _, c := range decisionCells {
		for v := 0; v < variants; v++ {
			reports = append(reports, decisionReport(c.sf, c.users, v))
		}
	}
	if *decisionsOut != "" {
		if err := os.WriteFile(*decisionsOut, []byte(strings.Join(reports, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d decision reports to %s", len(reports), *decisionsOut)
		return
	}
	if *update {
		if err := os.WriteFile(path, []byte(strings.Join(reports, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing decision golden (run with -update to generate): %v", err)
	}
	// The golden is the concatenation of every report; -short produces a
	// subset, so each report is looked up rather than the file compared.
	for _, rep := range reports {
		if !strings.Contains(string(want), rep) {
			t.Errorf("decisions drifted from %s:\n%s", path, rep)
		}
	}
}
