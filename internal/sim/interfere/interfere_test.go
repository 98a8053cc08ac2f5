package interfere

import (
	"context"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"choir/internal/mac"
	"choir/internal/sim"
	"choir/internal/sim/engine"
)

var update = flag.Bool("update", false, "rewrite the golden sweep table")

// TestCaptureZeroMarginTransparent pins the sentinel: MarginDB <= 0 makes
// the CaptureModel bit-transparent to its base receiver — the base table's
// entry at the group's count, whatever the foreign counts beside it.
func TestCaptureZeroMarginTransparent(t *testing.T) {
	base := mac.ModelReceiver{Success: sim.AnalyticChoirTable(30, 0.95, 14), MaxConcurrent: 30}
	cm := New(base, 0)
	if cm.Capacity() != base.Capacity() {
		t.Fatalf("capacity changed: %d vs %d", cm.Capacity(), base.Capacity())
	}
	foreign := [6]int32{0, 3, 0, 0, 7, 0}
	for k := 1; k <= 40; k++ {
		for sfIdx := 0; sfIdx < 6; sfIdx++ {
			for _, f := range []*[6]int32{nil, &foreign} {
				g := mac.Group{SFIdx: sfIdx, K: k, Foreign: f}
				if got, want := cm.Prob(g), base.PerTxProb(k); got != want {
					t.Fatalf("Prob(%+v) = %v, want %v (bit-identical)", g, got, want)
				}
			}
		}
	}
}

// TestCaptureModelShape pins the margin>0 physics qualitatively: capture
// rescues collisions toward the collision-free probability (never past it),
// more same-SF contention or cross-SF interference only hurts, and every
// probability stays in [0,1].
func TestCaptureModelShape(t *testing.T) {
	cm := New(mac.AlohaReceiver(), 6)
	if p := cm.Prob(mac.Group{K: 1}); p != 1 {
		t.Fatalf("lone transmission: %v, want 1", p)
	}
	// ALOHA says two transmitters always collide; capture gives the
	// stronger one a real chance.
	p2 := cm.Prob(mac.Group{K: 2})
	if p2 <= 0 || p2 >= 1 {
		t.Fatalf("two-transmitter capture probability %v outside (0,1)", p2)
	}
	prev := p2
	for k := 3; k <= 8; k++ {
		p := cm.Prob(mac.Group{K: k})
		if p > prev {
			t.Fatalf("capture probability rose with contention: k=%d %v > %v", k, p, prev)
		}
		prev = p
	}
	// Cross-SF interference multiplies in survival < 1 per interferer.
	one := [6]int32{0, 0, 0, 0, 0, 4}
	pClean := cm.Prob(mac.Group{K: 1})
	pNoisy := cm.Prob(mac.Group{K: 1, Foreign: &one})
	if !(pNoisy < pClean) || pNoisy < 0 {
		t.Fatalf("cross-SF interference did not degrade: clean %v noisy %v", pClean, pNoisy)
	}
	// The home SF index's own foreign count is already in K: the model
	// does not count it a second time, and PerTxProbForeign, which takes
	// the home count alone, folds it in.
	same := [6]int32{2, 0, 0, 0, 0, 0}
	if got, want := cm.Prob(mac.Group{K: 3, Foreign: &same}), cm.Prob(mac.Group{K: 3}); got != want {
		t.Fatalf("same-SF foreign frames counted twice: %v vs %v", got, want)
	}
	if got, want := cm.PerTxProbForeign(1, 0, &same), cm.Prob(mac.Group{K: 3, Foreign: &same}); got != want {
		t.Fatalf("PerTxProbForeign does not fold the same-SF count into K: %v vs %v", got, want)
	}
	if q := qfunc(0); math.Abs(q-0.5) > 1e-12 {
		t.Fatalf("Q(0) = %v, want 0.5", q)
	}
}

// perTxProbForeignReference is Prob, for k home transmissions beside the
// given foreign counts, with every power computed by math.Pow on the spot,
// as the model did before it kept tables.
func perTxProbForeignReference(cm *CaptureModel, k, sfIdx int, foreign *[6]int32) float64 {
	kEff := k + int(foreign[sfIdx])
	p := cm.base.PerTxProb(kEff)
	if cm.marginDB <= 0 {
		return p
	}
	if kEff > 1 {
		if p1 := cm.base.PerTxProb(1); p1 > p {
			p += (p1 - p) * math.Pow(cm.capQ, float64(kEff-1))
		}
	}
	for j, n := range foreign {
		if j == sfIdx || n == 0 {
			continue
		}
		p *= math.Pow(cm.surv[sfIdx][j], float64(n))
	}
	return p
}

// TestCaptureTablesMatchPow pins the power tables to what they replace:
// for every home count 1…100, home SF and foreign count 0…100 — both
// sides of the table's edge at 64, for the contention exponent and for
// the cross-SF one — Prob returns the bit pattern the
// math.Pow reference returns, with capture on and off.
func TestCaptureTablesMatchPow(t *testing.T) {
	base := mac.ModelReceiver{Success: sim.AnalyticChoirTable(30, 0.95, 14), MaxConcurrent: 30}
	for _, margin := range []float64{0, 6} {
		cm := New(base, margin)
		for sfIdx := 0; sfIdx < 6; sfIdx++ {
			for n := int32(0); n <= 100; n++ {
				vectors := map[string][6]int32{
					"every SF": {n, n, n, n, n, n},
					"mixed":    {n, (n + 13) % 101, (n + 26) % 101, (n + 39) % 101, (n + 52) % 101, (n + 65) % 101},
				}
				var same, cross [6]int32
				same[sfIdx], cross[(sfIdx+1)%6] = n, n
				vectors["same SF"], vectors["one cross SF"] = same, cross
				for name, foreign := range vectors {
					for k := 1; k <= 100; k++ {
						got := cm.Prob(mac.Group{SFIdx: sfIdx, K: k + int(foreign[sfIdx]), Foreign: &foreign})
						want := perTxProbForeignReference(cm, k, sfIdx, &foreign)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("margin %g, k %d, SF index %d, foreign %v (%s): %v (%#x), math.Pow gives %v (%#x)",
								margin, k, sfIdx, foreign, name, got, math.Float64bits(got), want, math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}

// TestEngineTransparencyWithCapture is the satellite equivalence test end
// to end: a zero-margin capture model through the real engine must give
// the plain base receiver's metrics bit-identically, on both drivers —
// beside a zero-node foreign network, where the run is today's
// single-network one, and beside a loaded foreign network, where the
// same-SF foreign count joins every group's contention count.
func TestEngineTransparencyWithCapture(t *testing.T) {
	base := mac.ModelReceiver{Success: sim.AnalyticChoirTable(30, 0.95, 14), MaxConcurrent: 30}
	cfg := engine.Config{
		Scheme:         mac.SchemeChoir,
		Nodes:          400,
		Gateways:       2,
		Slots:          300,
		ArrivalPerSlot: 0.1,
		PayloadLen:     12,
		Receiver:       base,
		Seed:           31,
	}
	for _, driver := range []engine.Driver{engine.DriverEvent, engine.DriverSlot} {
		cfg.Driver = driver
		want, err := engine.Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		wrapped := cfg
		wrapped.Receiver = New(base, 0)
		wrapped.Foreign = []engine.ForeignConfig{{Nodes: 0, ArrivalPerSlot: 0.5}}
		got, err := engine.Run(context.Background(), wrapped)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("driver %v: zero-margin capture + zero-node foreign not transparent:\nwant %+v\ngot  %+v", driver, want, got)
		}

		loaded := cfg
		loaded.Foreign = []engine.ForeignConfig{{Nodes: 200, ArrivalPerSlot: 0.05}}
		want, err = engine.Run(context.Background(), loaded)
		if err != nil {
			t.Fatal(err)
		}
		loaded.Receiver = New(base, 0)
		got, err = engine.Run(context.Background(), loaded)
		if err != nil {
			t.Fatal(err)
		}
		if want.ForeignTx == 0 {
			t.Fatalf("driver %v: the loaded foreign network transmitted nothing", driver)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("driver %v: zero-margin capture beside a loaded foreign network differs from the plain receiver:\nwant %+v\ngot  %+v", driver, want, got)
		}
	}
}

// maxKReceiver records the largest home contention count the engine asked
// the capture model about: the group's count without its same-SF foreign
// frames. The event driver's bands ask it concurrently.
type maxKReceiver struct {
	*CaptureModel
	maxK *atomic.Int64
}

func (r maxKReceiver) Prob(g mac.Group) float64 {
	k := int64(g.K)
	if g.Foreign != nil {
		k -= int64(g.Foreign[g.SFIdx])
	}
	for m := r.maxK.Load(); k > m && !r.maxK.CompareAndSwap(m, k); m = r.maxK.Load() {
	}
	return r.CaptureModel.Prob(g)
}

// TestCaptureEventSlotEquivalence is engine.TestEventSlotEquivalence on
// benchmark/'s city_dense shape at 1/50 scale — a foreign network and the
// capture model at margin 6 — with the receiver's capacity cut to 2 and the
// arrival rate raised so that groups exceed it: the event driver must keep
// the same first-Capacity() successes in node order as the slot reference.
func TestCaptureEventSlotEquivalence(t *testing.T) {
	var maxK atomic.Int64
	rx := maxKReceiver{
		CaptureModel: New(mac.ModelReceiver{Success: sim.AnalyticChoirTable(30, 0.95, 14), MaxConcurrent: 2}, 6),
		maxK:         &maxK,
	}
	cfg := engine.Config{
		Scheme:         mac.SchemeChoir,
		Driver:         engine.DriverSlot,
		Nodes:          1000,
		Gateways:       4,
		Slots:          800,
		ArrivalPerSlot: 2e-2,
		Foreign:        []engine.ForeignConfig{{Nodes: 400, ArrivalPerSlot: 1e-3}},
		Receiver:       rx,
		Seed:           1,
	}
	want, err := engine.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Driver = engine.DriverEvent
	got, err := engine.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("event driver diverged from slot reference:\nslot:  %+v\nevent: %+v", want, got)
	}
	if want.ForeignTx == 0 || want.Delivered == 0 || int(maxK.Load()) <= rx.Capacity() {
		t.Fatalf("scenario pins nothing: foreign_tx=%d delivered=%d max group %d vs capacity %d",
			want.ForeignTx, want.Delivered, maxK.Load(), rx.Capacity())
	}
}

// goldenSweepConfig is the exact configuration the CI sweep job runs via
// `choir-sim -exp interfere -nodes 200,500 -slots 300 -arrival 0.01
// -foreign-networks 1 -foreign-nodes 200 -foreign-arrival 0.01
// -capture-margin 6 -seed 7`; the committed golden table pins its output.
func goldenSweepConfig() SweepConfig {
	return SweepConfig{
		Base: engine.Config{
			Gateways:       1,
			Slots:          300,
			ArrivalPerSlot: 0.01,
			Foreign:        []engine.ForeignConfig{{Nodes: 200, ArrivalPerSlot: 0.01}},
			Seed:           7,
		},
		Densities: []int{200, 500},
		MarginDB:  6,
	}
}

// TestSweepGolden renders the CI sweep configuration and diffs it against
// the committed golden table (refresh with -update). Anything that shifts
// the sweep — receiver math, ADR choices, foreign draws, table formatting —
// shows up as a diff here. cmd/choir-sim's TestPaperGolden/interfere holds
// the command's output at sweep.yml's arguments to the same file.
func TestSweepGolden(t *testing.T) {
	s, err := RunSweep(context.Background(), goldenSweepConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	Fprint(&buf, s)
	path := filepath.Join("testdata", "golden_sweep.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(buf.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/sim/interfere -run TestSweepGolden -update` to create it)", err)
	}
	if buf.String() != string(want) {
		t.Errorf("sweep table drifted from golden (rerun with -update if intentional):\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestSweepDriverInvariance pins the acceptance criterion directly: the
// interfere sweep table is identical on the event and slot drivers, at the
// full golden configuration (sweep.yml's interfere row).
func TestSweepDriverInvariance(t *testing.T) {
	cfg := goldenSweepConfig()
	render := func(driver engine.Driver) string {
		c := cfg
		c.Base.Driver = driver
		s, err := RunSweep(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		Fprint(&buf, s)
		return buf.String()
	}
	if event, slot := render(engine.DriverEvent), render(engine.DriverSlot); event != slot {
		t.Errorf("sweep table diverged between drivers:\n%s\nvs\n%s", event, slot)
	}
}

// TestSweepVariantsAndFigure pins the matrix shape: one Choir column plus
// one per ADR policy, and a metrics cell per variant at every density.
func TestSweepVariantsAndFigure(t *testing.T) {
	vs := Variants()
	if len(vs) != 1+len(engine.ADRPolicies()) {
		t.Fatalf("variant matrix has %d columns: %+v", len(vs), vs)
	}
	if vs[0].Name != "choir" || vs[0].Scheme != mac.SchemeChoir {
		t.Fatalf("first variant should be choir: %+v", vs[0])
	}
	seen := map[string]bool{}
	for _, v := range vs[1:] {
		if v.Scheme != mac.SchemeAloha {
			t.Errorf("ADR variant %q not on ALOHA", v.Name)
		}
		seen[v.Name] = true
	}
	for _, want := range []string{"adr-snr", "adr-sf12", "adr-distance", "adr-power"} {
		if !seen[want] {
			t.Errorf("missing variant %q in %+v", want, vs)
		}
	}
	cfg := goldenSweepConfig()
	cfg.Densities = []int{100}
	cfg.Base.Slots = 100
	s, err := RunSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 1 || len(s.Points[0].Metrics) != len(vs) {
		t.Fatalf("sweep shape: %+v", s)
	}
	if _, err := RunSweep(context.Background(), SweepConfig{}); err == nil {
		t.Error("empty sweep accepted")
	}
}

// TestSweepMarginEdges pins what RunSweep makes of a margin that is no
// finite number: NaN is rejected (it fails the margin <= 0 test and turns
// every decode probability NaN), -Inf means off, as 0 does, and +Inf
// means a frame never captures a contended channel: finite probabilities,
// a lone frame decoding as it would without the model.
func TestSweepMarginEdges(t *testing.T) {
	cfg := goldenSweepConfig()
	cfg.Densities = []int{150}
	cfg.MarginDB = math.NaN()
	if _, err := RunSweep(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Fatalf("RunSweep with a NaN margin: err = %v, want a NaN error", err)
	}
	render := func(margin float64) string {
		c := cfg
		c.MarginDB = margin
		s, err := RunSweep(context.Background(), c)
		if err != nil {
			t.Fatalf("margin %g: %v", margin, err)
		}
		for i, m := range s.Points[0].Metrics {
			if m.Delivered == 0 {
				t.Errorf("margin %g: variant %s delivered nothing", margin, s.Variants[i].Name)
			}
		}
		var buf strings.Builder
		Fprint(&buf, s)
		return buf.String()
	}
	if off, negInf := render(0), render(math.Inf(-1)); off != negInf {
		t.Errorf("margin -Inf is not margin 0 (off):\n%s\nvs\n%s", negInf, off)
	}
	render(math.Inf(1))
	base := mac.AlohaReceiver()
	never := New(base, math.Inf(1))
	if never.capQ != 0 {
		t.Errorf("margin +Inf: capture probability %g, want 0", never.capQ)
	}
	if got, want := never.Prob(mac.Group{K: 1}), base.PerTxProb(1); got != want {
		t.Errorf("margin +Inf: a lone frame decodes with %g, want the base receiver's %g", got, want)
	}
	for k := 2; k <= 4; k++ {
		if p := never.Prob(mac.Group{K: k}); !(p >= 0 && p <= 1) {
			t.Errorf("margin +Inf: Prob at K %d = %g", k, p)
		}
	}
}
