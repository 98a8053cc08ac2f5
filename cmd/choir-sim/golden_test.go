package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"choir/internal/cli"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.golden files from this tree's output")

// TestPaperGolden pins the paper's numbers: every figure, table and headline
// `choir-sim -exp all -seed 7` prints must match testdata/paper.golden byte
// for byte, at any GOMAXPROCS. The other cases are a four-gateway city, the
// one pinned output whose bands split node rows (`-exp all`'s city block has
// a single gateway); the Fig. 8(a–c) tables on the IQ-calibrated Choir
// table, which pins SuccessTable in all three SNR regimes; and the backend
// comparison over the golden fixtures, with its mean-decode column masked
// because it is the one wall-clock figure choir-sim prints; and sweep.yml's
// interfere table, compared with internal/sim/interfere's golden. An intended
// change regenerates the files in its own commit, with the diff explained:
//
//	go test ./cmd/choir-sim -run TestPaperGolden -update
//
// It takes about 10 s on two cores, and minutes under the race detector, so
// -short skips it; the sweeps it drives have their own race-checked
// determinism tests.
func TestPaperGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("-short: the full -exp all run is tier-1's")
	}
	for _, tc := range []struct {
		name, path string
		args       []string
	}{
		{"paper", "testdata/paper.golden", []string{"-exp", "all", "-seed", "7"}},
		{"city-gw4", "testdata/city-gw4.golden", []string{"-exp", "city", "-nodes", "1000,10000", "-slots", "2000", "-gateways", "4", "-arrival", "0.002", "-seed", "7"}},
		{"calibrated", "testdata/calibrated.golden", []string{"-exp", "fig8abc", "-calibrate", "-slots", "500", "-seed", "7"}},
		{"compare", "testdata/compare.golden", []string{"-exp", "compare", "-seed", "7", "-fixtures", "../../internal/choir/testdata/golden/*.iq"}},
		// sweep.yml's interfere row, against the table interfere's own
		// TestSweepGolden holds, so the table is committed once.
		{"interfere", "../../internal/sim/interfere/testdata/golden_sweep.txt", []string{"-exp", "interfere", "-nodes", "200,500", "-slots", "300", "-arrival", "0.01", "-foreign-networks", "1", "-foreign-nodes", "200", "-foreign-arrival", "0.01", "-capture-margin", "6", "-seed", "7"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkGolden(t, filepath.FromSlash(tc.path), tc.args)
		})
	}
}

// untimed replaces the mean-decode column of a backend comparison's rows
// with a fixed token, and leaves any other output as it is.
func untimed(out string) string {
	lines := strings.Split(out, "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "backend\t") {
		return out
	}
	for i := 1; i < len(lines); i++ {
		if f := strings.Split(lines[i], "\t"); len(f) == 5 {
			f[3] = "<decode time>"
			lines[i] = strings.Join(f, "\t")
		}
	}
	return strings.Join(lines, "\n")
}

// checkGolden runs choir-sim with args and compares its stdout, with a
// comparison's mean-decode column masked (untimed), with the file at path,
// or rewrites the file under -update.
func checkGolden(t *testing.T, path string, args []string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), args, &stdout, &stderr); code != cli.ExitOK {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	out := untimed(stdout.String())
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to generate): %v", path, err)
	}
	if out == string(want) {
		return
	}
	got, wantLines := strings.Split(out, "\n"), strings.Split(string(want), "\n")
	shown := 0
	for i := 0; i < max(len(got), len(wantLines)) && shown < 10; i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s:%d\n got: %q\nwant: %q", path, i+1, g, w)
			shown++
		}
	}
	if len(got) != len(wantLines) {
		t.Errorf("%d lines, %s holds %d", len(got), path, len(wantLines))
	}
}
