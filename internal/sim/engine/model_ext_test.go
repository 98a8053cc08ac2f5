package engine_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"choir/internal/exec"
	"choir/internal/mac"
	"choir/internal/sim"
	"choir/internal/sim/engine"
	"choir/internal/sim/interfere"
)

// groupSizes records the largest home contention count the engine asked a
// capture model about: the group's count without its same-SF foreign
// frames. The event driver's bands ask it concurrently.
type groupSizes struct {
	*interfere.CaptureModel
	maxK *atomic.Int64
}

func (r groupSizes) Prob(g mac.Group) float64 {
	k := int64(g.K)
	if g.Foreign != nil {
		k -= int64(g.Foreign[g.SFIdx])
	}
	for m := r.maxK.Load(); k > m && !r.maxK.CompareAndSwap(m, k); m = r.maxK.Load() {
	}
	return r.CaptureModel.Prob(g)
}

// TestModelDenseCapture holds both drivers to the model on benchmark/'s
// city_dense shape at 1/50 scale: four gateways, one foreign network and
// the capture model at 6 dB over the 30-user analytic table. A second run
// cuts the receiver's capacity to 2 and raises the arrival rate, so groups
// exceed it and the ration binds beside capture and cross-SF leakage.
func TestModelDenseCapture(t *testing.T) {
	table := sim.AnalyticChoirTable(30, 0.95, 14)
	for _, tc := range []struct {
		name     string
		capacity int
		arrival  float64
	}{
		{"city_dense/50", 30, 1e-3},
		{"city_dense/50 capacity 2", 2, 2e-2},
	} {
		var maxK atomic.Int64
		rx := groupSizes{interfere.New(mac.ModelReceiver{Success: table, MaxConcurrent: tc.capacity}, 6), &maxK}
		m := engine.EventMatchesSlot(t, tc.name, engine.Config{
			Scheme:         mac.SchemeChoir,
			Nodes:          1000,
			Gateways:       4,
			Slots:          800,
			ArrivalPerSlot: tc.arrival,
			Foreign:        []engine.ForeignConfig{{Nodes: 400, ArrivalPerSlot: tc.arrival}},
			Receiver:       rx,
			Seed:           1,
		})
		if m.Delivered == 0 || m.ForeignTx == 0 || m.CollidedTx == 0 {
			t.Fatalf("%s: degenerate run (delivered=%d foreign_tx=%d collided=%d) pins nothing", tc.name, m.Delivered, m.ForeignTx, m.CollidedTx)
		}
		if tc.capacity == 2 && maxK.Load() <= 2 {
			t.Fatalf("%s: no group exceeded the capacity (largest %d): the ration never bound", tc.name, maxK.Load())
		}
	}
}

// TestModelCitySweep holds both drivers to the model at both points of the
// scheduled sweep's city row (choir-sim -exp city -nodes 1000,10000 -slots
// 2000 -gateways 4 -arrival 0.002 -seed 7, TestPaperGolden/city-gw4), each
// at its derived seed.
func TestModelCitySweep(t *testing.T) {
	for pi, nodes := range []int{1000, 10000} {
		m := engine.EventMatchesSlot(t, "city-gw4", engine.Config{
			Scheme:         mac.SchemeChoir,
			Nodes:          nodes,
			Gateways:       4,
			Slots:          2000,
			ArrivalPerSlot: 0.002,
			Receiver:       mac.ModelReceiver{Success: sim.AnalyticChoirTable(30, 0.95, 14), MaxConcurrent: 30},
			Seed:           exec.DeriveSeed(7, engine.DimSweep, uint64(pi)),
		})
		if m.Delivered == 0 || m.CollidedTx == 0 {
			t.Fatalf("%d nodes: degenerate row (delivered=%d collided=%d) pins nothing", nodes, m.Delivered, m.CollidedTx)
		}
	}
}

// TestModelIsIndependent keeps the model a second implementation, not a
// copy: model_test.go must name no function, method, variable, constant or
// type that the engine's non-test code declares, but for the contract a
// run is defined by — Config, Metrics, ADRPolicy and its values,
// TxPowersDBm, the dim* hash tags, and Run. A model that called wakeNode or
// read lnTab would agree with the engine by construction.
func TestModelIsIndependent(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]bool{}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				declared[d.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declared[spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							declared[n.Name] = true
						}
					}
				}
			}
		}
	}
	allowed := map[string]bool{"Config": true, "Metrics": true, "TxPowersDBm": true, "Run": true, "ADRPolicy": true,
		"ADRFastestSNR": true, "ADRFixedSF12": true, "ADRDistance": true, "ADRTxPower": true}
	for _, name := range []string{"wakeNode", "finishTx", "groupProb", "decodeDraw", "vetoed", "arrivalAfter",
		"gapOf", "lnUnit", "lnTab", "fastestSF", "adrSelect", "channelOf", "gatewayOf", "posOf", "poisson",
		"foreignFor", "grantOracle", "newCore", "unitOf", "snrGuard"} {
		if !declared[name] {
			t.Errorf("the engine declares no %s: the guard is out of date", name)
		}
	}

	src, err := os.ReadFile("model_test.go")
	if err != nil {
		t.Fatal(err)
	}
	f, err := parser.ParseFile(fset, "model_test.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	// A name another package qualifies (exec.Start, mac.Group) is that
	// package's, whatever the engine declares.
	imported := map[string]bool{}
	for _, imp := range f.Imports {
		imported[strings.Trim(filepath.Base(imp.Path.Value), `"`)] = true
	}
	qualified := map[*ast.Ident]bool{}
	var named []string
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && imported[x.Name] {
				qualified[n.Sel] = true
			}
		case *ast.Ident:
			if declared[n.Name] && !allowed[n.Name] && !strings.HasPrefix(n.Name, "dim") && !qualified[n] {
				named = append(named, fset.Position(n.Pos()).String()+": "+n.Name)
			}
		}
		return true
	})
	if len(named) > 0 {
		t.Errorf("the model names the engine's own code, so it cannot check it:\n%s", strings.Join(named, "\n"))
	}
	if !strings.Contains(string(src), "func modelRun(") {
		t.Error("model_test.go declares no modelRun: the guard checks nothing")
	}
}
