package engine

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"choir/internal/mac"
	"choir/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/metrics.golden from this tree's Metrics")

// metricsDigest is benchmark/city.go's digest: FNV-64a over every field of
// the metrics as %+v prints them.
func metricsDigest(m *Metrics) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", *m)
	return h.Sum64()
}

// citySparse50 is benchmark/'s city_sparse at 1/50 scale, the shape
// TestEventSlotEquivalence and the allocation pin also run.
func citySparse50(nodes int) Config {
	return Config{
		Scheme:         mac.SchemeChoir,
		Nodes:          nodes,
		Gateways:       16,
		Slots:          1000,
		ArrivalPerSlot: 2e-5,
		Receiver:       mac.ModelReceiver{Success: sim.AnalyticChoirTable(30, 0.95, 14), MaxConcurrent: 30},
		Seed:           1,
	}
}

// TestMetricsGolden pins Metrics against digests recorded from the tree
// before the node record, the backlog and the event queue were rebuilt.
// Event ≡ slot equivalence cannot see a bug in code both drivers share —
// wakeNode, finishTx, the backlog — so these digests are what holds that
// code to the model it had:
//
//	go test ./internal/sim/engine -run TestMetricsGolden -update
//
// rewrites the file, and is only ever right when the model itself is meant
// to change.
func TestMetricsGolden(t *testing.T) {
	var lines []string
	record := func(name string, cfg Config) *Metrics {
		m := mustRun(t, cfg)
		lines = append(lines, fmt.Sprintf("%s %016x\n", name, metricsDigest(m)))
		return m
	}

	// TestEventSlotEquivalence's scenarios, same PCG seeds.
	rng := rand.New(rand.NewPCG(0xC17E, 0x5CA1E))
	for trial := 0; trial < 60; trial++ {
		record(fmt.Sprintf("trial/%02d", trial), randomConfig(rng))
	}
	record("city_sparse/50", citySparse50(20_000))

	// One overloaded ALOHA building per queue bound: every node's backlog
	// fills, drops at the cap and drains through backoff, so deliveries
	// span many latency octaves — a backlog that popped in any order but
	// FIFO would move the histogram, not just the counts.
	for _, queueCap := range []int{2, 64} {
		m := record(fmt.Sprintf("aloha_cell/cap%d", queueCap), Config{
			Scheme: mac.SchemeAloha, Nodes: 8, Gateways: 1, Slots: 6000,
			ArrivalPerSlot: 0.2, QueueCap: queueCap, MaxBackoffExp: 5,
			SideM: 10, PayloadLen: 12, Receiver: mac.AlohaReceiver{}, Seed: 77,
		})
		buckets := 0
		for _, c := range m.LatencyHist {
			if c > 0 {
				buckets++
			}
		}
		if m.Dropped == 0 || m.Delivered == 0 || buckets < 4 {
			t.Fatalf("aloha cell cap %d pins too little: dropped=%d delivered=%d latency buckets=%d", queueCap, m.Dropped, m.Delivered, buckets)
		}
	}
	m := record("oracle_cell", Config{
		Scheme: mac.SchemeOracle, Nodes: 40, Gateways: 1, Slots: 2000,
		ArrivalPerSlot: 0.1, QueueCap: 8, SideM: 10, PayloadLen: 12,
		Receiver: mac.ModelReceiver{Success: []float64{1, 1, 1, 0.5}, MaxConcurrent: 3}, Seed: 78,
	})
	if m.Dropped == 0 || m.Delivered == 0 {
		t.Fatalf("oracle cell pins too little: dropped=%d delivered=%d", m.Dropped, m.Delivered)
	}

	path := filepath.Join("testdata", "metrics.golden")
	got := strings.Join(lines, "")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing metrics golden (run with -update to generate): %v", err)
	}
	if got != string(want) {
		wantLines := strings.SplitAfter(string(want), "\n")
		for i, l := range lines {
			if i >= len(wantLines) || l != wantLines[i] {
				t.Errorf("Metrics drifted from %s at line %d: got %q", path, i+1, l)
			}
		}
		if len(lines) != len(wantLines)-1 {
			t.Errorf("%d digests, %s holds %d", len(lines), path, len(wantLines)-1)
		}
	}
}
