package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/paper.golden from this tree's output")

// TestPaperGolden pins the paper's numbers: every figure, table and headline
// `choir-sim -exp all -seed 7` prints must match testdata/paper.golden byte
// for byte, at any GOMAXPROCS. An intended change regenerates the file in
// its own commit, with the diff explained:
//
//	go test ./cmd/choir-sim -run TestPaperGolden -update
//
// It takes about 3 s, and about 50 s under the race detector, so -short
// skips it; the sweeps it drives have their own race-checked determinism
// tests.
func TestPaperGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("-short: the full -exp all run is tier-1's")
	}
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-exp", "all", "-seed", "7"}, &stdout, &stderr); code != exitOK {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	path := filepath.Join("testdata", "paper.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing paper golden (run with -update to generate): %v", err)
	}
	if bytes.Equal(stdout.Bytes(), want) {
		return
	}
	got, wantLines := strings.Split(stdout.String(), "\n"), strings.Split(string(want), "\n")
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
