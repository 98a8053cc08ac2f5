package choir_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"choir"
)

// parseSources parses every non-test Go file of the module outside
// benchmark/ (which measures the repository from outside and is frozen
// between benchmark PRs) and hands each to visit with its directory.
func parseSources(t *testing.T, mode parser.Mode, visit func(dir string, f *ast.File)) {
	t.Helper()
	walkSources(t, mode, func(dir string, f *ast.File) {
		if dir != "benchmark" {
			visit(dir, f)
		}
	})
}

// walkSources is parseSources with benchmark/ included.
func walkSources(t *testing.T, mode parser.Mode, visit func(dir string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, mode)
		if err != nil {
			return err
		}
		visit(filepath.ToSlash(filepath.Dir(path)), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOneCallFormPerOperation enforces DESIGN.md §7: a blocking operation
// has one exported form, taking its context first. A package that exports
// both X and XCtx (functions, or methods of one type) has grown the
// context-less twin back.
func TestOneCallFormPerOperation(t *testing.T) {
	exported := map[string]bool{} // "dir.Recv.Name"
	parseSources(t, parser.SkipObjectResolution, func(dir string, f *ast.File) {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			recv := ""
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				typ := fn.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if idx, ok := typ.(*ast.IndexExpr); ok {
					typ = idx.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					recv = id.Name
				}
			}
			exported[dir+"."+recv+"."+fn.Name.Name] = true
		}
	})
	for key := range exported {
		if exported[key+"Ctx"] {
			t.Errorf("%s and %sCtx are both exported: keep the context-taking form under the plain name", key, key)
		}
	}
}

// TestNoOrphanInternalPackages fails when a package under internal/ is
// imported by no non-test file outside its own directory: code only its own
// tests reach is dead weight.
func TestNoOrphanInternalPackages(t *testing.T) {
	const module = "choir/"
	imported := map[string]bool{} // package dir -> some other dir imports it
	internal := map[string]bool{} // package dirs under internal/
	parseSources(t, parser.ImportsOnly, func(dir string, f *ast.File) {
		if strings.HasPrefix(dir, "internal/") {
			internal[dir] = true
		}
		for _, im := range f.Imports {
			if p, _ := strconv.Unquote(im.Path.Value); strings.HasPrefix(p, module) && p != module+dir {
				imported[strings.TrimPrefix(p, module)] = true
			}
		}
	})
	if len(internal) == 0 {
		t.Fatal("found no packages under internal/")
	}
	for dir := range internal {
		if !imported[dir] {
			t.Errorf("%s is imported by no non-test file outside itself", dir)
		}
	}
}

// TestOneMACModel enforces DESIGN.md §15: internal/sim/engine is the only
// simulator of the MAC schemes. internal/mac keeps the vocabulary (schemes,
// receiver models, team scheduler) and must not grow a second slot loop
// back, and the engine must run all three schemes.
func TestOneMACModel(t *testing.T) {
	banned := map[string]bool{"Run": true, "RunMany": true, "Job": true, "Config": true, "Metrics": true, "Receiver": true}
	sawMAC := false
	parseSources(t, parser.SkipObjectResolution, func(dir string, f *ast.File) {
		if dir != "internal/mac" {
			return
		}
		sawMAC = true
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && banned[d.Name.Name] {
					t.Errorf("internal/mac exports func %s: the engine is the one MAC simulator", d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && banned[ts.Name.Name] {
						t.Errorf("internal/mac exports type %s: the engine is the one MAC simulator", ts.Name.Name)
					}
				}
			}
		}
	})
	if !sawMAC {
		t.Fatal("found no sources under internal/mac")
	}
	oracle := choir.CityConfig{Scheme: choir.SchemeOracle, Nodes: 4, Slots: 10, Receiver: choir.CityModelReceiver{Success: []float64{1}}}
	if err := oracle.Validate(); err != nil {
		t.Errorf("engine rejects SchemeOracle: %v", err)
	}
}

// TestEngineRunIsOneGoroutine enforces DESIGN.md §15: one city run is one
// goroutine. Non-test internal/sim/engine code starts no goroutine and uses
// no pool, fan-out or wait group, and nothing reads Config.Shards or
// Config.Workers (declared only for benchmark/). The one exemption is the
// methods of Fig8Config, whose own Workers knob fans whole runs out across
// figure cells — parallelism across runs, never inside one.
func TestEngineRunIsOneGoroutine(t *testing.T) {
	sawEngine := false
	parseSources(t, parser.SkipObjectResolution, func(dir string, f *ast.File) {
		if dir != "internal/sim/engine" {
			return
		}
		sawEngine = true
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil {
					if id, ok := n.Recv.List[0].Type.(*ast.Ident); ok && id.Name == "Fig8Config" {
						return false
					}
				}
			case *ast.GoStmt:
				t.Error("internal/sim/engine has a go statement: a run stays on the calling goroutine")
			case *ast.SelectorExpr:
				x, _ := n.X.(*ast.Ident)
				switch sel := n.Sel.Name; {
				case sel == "ForEach",
					x != nil && x.Name == "exec" && (sel == "NewPool" || sel == "Map"),
					x != nil && x.Name == "sync" && sel == "WaitGroup":
					t.Errorf("internal/sim/engine uses %s: a run stays on the calling goroutine", sel)
				case sel == "Shards" || sel == "Workers":
					t.Errorf("internal/sim/engine reads .%s: Config.Shards and Config.Workers are accepted and ignored", sel)
				}
			}
			return true
		})
	})
	if !sawEngine {
		t.Fatal("found no sources under internal/sim/engine")
	}
}

// TestGatewayDecodesOneWay enforces DESIGN.md §14: a frame has one route
// through the gateway — dequeue, ladder, outcome — and its outcome is a
// function of its samples. The batched first rung and its backend entry point
// stay deleted. So do the retry budget, backoff and circuit breakers: non-test
// code in internal/gateway and cmd/choir-gatewayd names none of them, and
// internal/gateway imports no math/rand. gateway.Config.Batch and
// gateway.Config.Seed (declared only for benchmark/) are neither read nor set
// by the gateway or the CLIs. dsp's BatchSpectrum, NewBatchSpectrum and
// TransformPrunedBatch are the decoder's window grids, a different thing, and
// none of the exact names below.
func TestGatewayDecodesOneWay(t *testing.T) {
	banned := map[string]bool{"DecodeBatch": true, "BatchItem": true, "processBatch": true, "runBatch": true}
	sawGateway := false
	parseSources(t, parser.SkipObjectResolution, func(dir string, f *ast.File) {
		sawGateway = sawGateway || dir == "internal/gateway"
		gatewayd := dir == "internal/gateway" || dir == "cmd/choir-gatewayd"
		// ignored reports whether dir may not touch the accepted-and-ignored
		// gateway.Config field name (other commands have their own Seed).
		ignored := func(name string) bool {
			switch name {
			case "Batch":
				return dir == "internal/gateway" || strings.HasPrefix(dir, "cmd/")
			case "Seed":
				return gatewayd
			}
			return false
		}
		if dir == "internal/gateway" {
			for _, im := range f.Imports {
				if p, _ := strconv.Unquote(im.Path.Value); strings.HasPrefix(p, "math/rand") {
					t.Errorf("%s imports %s: nothing in the gateway draws at random", dir, p)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				lower := strings.ToLower(n.Name)
				switch {
				case banned[n.Name]:
					t.Errorf("%s names %s: the batched decode path is deleted", dir, n.Name)
				case gatewayd && (n.Name == "MaxAttempts" || strings.Contains(lower, "breaker") || strings.Contains(lower, "backoff")):
					t.Errorf("%s names %s: the ladder tries each rung once; retries, backoff and breakers are deleted", dir, n.Name)
				}
			case *ast.SelectorExpr:
				if ignored(n.Sel.Name) {
					t.Errorf("%s reads .%s: gateway.Config.%s is accepted and ignored", dir, n.Sel.Name, n.Sel.Name)
				}
			case *ast.KeyValueExpr:
				if key, ok := n.Key.(*ast.Ident); ok && ignored(key.Name) {
					t.Errorf("%s sets %s: in a composite literal: gateway.Config.%s is accepted and ignored", dir, key.Name, key.Name)
				}
			}
			return true
		})
	})
	if !sawGateway {
		t.Fatal("found no sources under internal/gateway")
	}
}

// TestDecodeHasNoSeed keeps the decode seed deleted (DESIGN.md §7): a decode
// is a function of (config, samples), so nothing outside benchmark/ calls
// Reseed, every Reseed still declared (for frozen benchmark/, ROADMAP item
// 9) has an empty body, choir.Config has no Seed to thread and no clustering
// switch to reach a second peak-to-user mapping, non-test code in
// internal/choir and internal/backend imports no math/rand, and a pool
// checkout takes no seed.
func TestDecodeHasNoSeed(t *testing.T) {
	shims := 0
	parseSources(t, parser.SkipObjectResolution, func(dir string, f *ast.File) {
		if dir == "internal/choir" || dir == "internal/backend" {
			for _, im := range f.Imports {
				if p, _ := strconv.Unquote(im.Path.Value); strings.HasPrefix(p, "math/rand") {
					t.Errorf("%s imports %s: the decoder draws nothing at random", dir, p)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Reseed" {
					t.Errorf("%s calls .Reseed(: it is accepted and ignored, there is no state to reset", dir)
				}
			case *ast.FuncDecl:
				if n.Name.Name == "Reseed" {
					shims++
					if n.Body == nil || len(n.Body.List) != 0 {
						t.Errorf("%s declares a Reseed that does something: a backend keeps no random state between decodes", dir)
					}
				}
			}
			return true
		})
	})
	if shims == 0 {
		t.Error("found no Reseed declaration: drop this check once benchmark/ stops calling the shims")
	}
	cfg := reflect.TypeOf(choir.DefaultDecoderConfig(choir.DefaultPHY()))
	if _, ok := cfg.FieldByName("Seed"); ok {
		t.Errorf("%s declares a Seed field: the decoder draws nothing a caller could seed", cfg)
	}
	for i := range cfg.NumField() {
		if name := cfg.Field(i).Name; strings.Contains(name, "Clustering") {
			t.Errorf("%s declares %s: greedy fingerprint matching is the one peak-to-user mapping", cfg, name)
		}
	}
	get, ok := reflect.TypeOf(&choir.BackendPool{}).MethodByName("Get")
	if !ok {
		t.Fatal("BackendPool has no Get method")
	}
	if extra := get.Type.NumIn() - 1; extra != 0 {
		t.Errorf("BackendPool.Get takes %d parameter(s), want 0: a checkout has nothing to reseed", extra)
	}
}

// TestNoTestOnlyFunctions enforces the deletion rule of PR 21: a function
// outside benchmark/ stays only while something that runs mentions it. Every
// top-level func or method declared in a non-test file must be named by some
// non-test file (commands, examples and benchmark/ count as callers) outside
// its own declaration, or appear in carried with the reason it stays:
//
//	reference: <test>      a test compares live code against it
//	probe/fixture: <test>  a test of other, live code measures or builds with it
//	ROADMAP item N         an open item names it as its input
//	interface: <which>     called through an interface the name cannot show
//
// A carried entry that is no longer declared, or that has gained a non-test
// mention, fails too, so the map cannot rot. Matching is by bare name, which
// makes this a floor and not a proof: a dead method named Decode hides
// behind every live Decode, and a name a struct field shares counts as
// mentioned. A go/types reachability scan finds those; this keeps the
// obvious ones from coming back.
func TestNoTestOnlyFunctions(t *testing.T) {
	carried := map[string]string{
		"LeastSquares":         "reference: TestFitsMatchExplicitLeastSquares, TestSolveJitteredBitIdentical (linalg.Solve and the Matrix algebra under it)",
		"ApplyMultipath":       "probe/fixture: TestDecodeRobustToResolvableEcho, TestDecodeUnderStrongResolvableEcho",
		"AmplitudeFromDBm":     "probe/fixture: internal/choir/decoder_test.go synthesize",
		"PaddedSpectrum":       "probe/fixture: TestCFOShiftsDemodulatedPeakFractionally, TestSpreadingFactorQuasiOrthogonality",
		"FindPeaks":            "probe/fixture: TestCFOShiftsDemodulatedPeakFractionally",
		"Power":                "probe/fixture: TestCombineAddsCalibratedNoise",
		"Percentile":           "probe/fixture: TestPopulationDiversity",
		"OpenFaultFile":        "probe/fixture: TestJournalFaultWriteError, TestJournalFaultShortWrite, TestJournalFaultSyncError",
		"FaultPoint":           "probe/fixture: TestJournalFaultShortWrite",
		"Recover":              "probe/fixture: internal/gateway/recovery_test.go, TestCrashRestartExactlyOnce",
		"AdmissionLimit":       "probe/fixture: TestAdmissionShedsUnderOverload, TestReadyShrunkAdmissionWindowNotReady",
		"MinSlot":              "probe/fixture: FuzzEventQueue, TestEventQueueOrdering",
		"Fingerprint":          "probe/fixture: TestCompareDeterministicAcrossWorkers",
		"SubtractDecodedUsers": "ROADMAP item 7 (Sec. 7.2, teams under collision)",
		"ServeHTTP":            "interface: http.Handler (obs check sets on the debug mux)",
	}
	for name, reason := range carried {
		ok := false
		for _, kind := range []string{"reference: ", "probe/fixture: ", "ROADMAP item ", "interface: "} {
			ok = ok || strings.HasPrefix(reason, kind)
		}
		if !ok {
			t.Errorf("carried[%q] = %q: not one of the four kinds of reason", name, reason)
		}
	}

	declared := map[string]string{} // name -> a directory declaring it, outside benchmark/
	mentions := map[string]int{}    // name -> identifiers outside a declaration of that name
	walkSources(t, parser.SkipObjectResolution, func(dir string, f *ast.File) {
		for _, d := range f.Decls {
			self := ""
			if fn, ok := d.(*ast.FuncDecl); ok {
				self = fn.Name.Name
				if dir != "benchmark" && self != "main" && self != "init" {
					declared[self] = dir
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name != self {
					mentions[id.Name]++
				}
				return true
			})
		}
	})
	if len(declared) == 0 {
		t.Fatal("found no function declarations")
	}
	for name, dir := range declared {
		_, kept := carried[name]
		switch {
		case mentions[name] == 0 && !kept:
			t.Errorf("%s: %s is mentioned by no non-test file outside its declaration: delete it with its tests, or carry it with a reason", dir, name)
		case mentions[name] > 0 && kept:
			t.Errorf("%s: %s is carried but now has a non-test mention: drop it from carried", dir, name)
		}
	}
	for name := range carried {
		if _, ok := declared[name]; !ok {
			t.Errorf("carried[%q] names a function that is no longer declared", name)
		}
	}
}
