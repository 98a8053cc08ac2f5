package choir_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"choir"
	"choir/internal/mac"
)

// parseSources parses every non-test Go file of the module outside
// benchmark/ (which measures the repository from outside and is frozen
// between benchmark PRs) and testdata/ and hands each to visit with its
// directory.
func parseSources(t *testing.T, mode parser.Mode, visit func(dir string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "benchmark") {
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
	oracle := choir.CityConfig{Scheme: mac.SchemeOracle, Nodes: 4, Slots: 10, Receiver: choir.CityModelReceiver{Success: []float64{1}}}
	if err := oracle.Validate(); err != nil {
		t.Errorf("engine rejects SchemeOracle: %v", err)
	}
}

// TestEngineConcurrencyIsFan enforces DESIGN.md §15: the city engine's one
// source of concurrency is exec.Fan — an event run's bands of gateway rows
// directly, and the figure cells through exec.ForEach — whose participants,
// polling and joins have one set of rules (internal/exec). Non-test
// internal/sim/engine code has no go statement and no sync.WaitGroup, and
// does not call exec.Map. That nothing reads Config.Shards or Config.Workers
// (declared only for benchmark/) is TestNoTestOnlyFunctions' to check.
func TestEngineConcurrencyIsFan(t *testing.T) {
	sawEngine, sawFan := false, false
	parseSources(t, parser.SkipObjectResolution, func(dir string, f *ast.File) {
		if dir != "internal/sim/engine" {
			return
		}
		sawEngine = true
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				t.Error("internal/sim/engine has a go statement: its fan-outs are exec.Fan's")
			case *ast.SelectorExpr:
				x, _ := n.X.(*ast.Ident)
				switch sel := n.Sel.Name; {
				case x != nil && x.Name == "exec" && sel == "Fan":
					sawFan = true
				case x != nil && x.Name == "exec" && sel == "Map",
					x != nil && x.Name == "sync" && sel == "WaitGroup":
					t.Errorf("internal/sim/engine uses %s: its fan-outs are exec.Fan's", sel)
				}
			}
			return true
		})
	})
	if !sawEngine {
		t.Fatal("found no sources under internal/sim/engine")
	}
	if !sawFan {
		t.Error("internal/sim/engine names no exec.Fan: the guard no longer sees its fan-outs")
	}
}

// TestOneFanOutWidth enforces DESIGN.md §7: every fan-out is as wide as
// exec.Fan makes it, min(GOMAXPROCS, n), so non-test code outside
// internal/exec never reads or sets GOMAXPROCS. The one exemption is the
// gateway's default decode-worker count, a deployment setting assigned to a
// Workers field; benchmark/ pins its own and is not parsed.
func TestOneFanOutWidth(t *testing.T) {
	parseSources(t, parser.SkipObjectResolution, func(dir string, f *ast.File) {
		if dir == "internal/exec" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if sel, ok := n.Lhs[0].(*ast.SelectorExpr); ok && sel.Sel.Name == "Workers" && dir == "internal/gateway" {
					return false
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "runtime" && n.Sel.Name == "GOMAXPROCS" {
					t.Errorf("%s calls runtime.GOMAXPROCS: a fan-out's width is exec.Fan's to pick", dir)
				}
			}
			return true
		})
	})
}

// TestGatewayDecodesOneWay enforces DESIGN.md §14: a frame has one route
// through the gateway — dequeue, ladder, outcome — and its outcome is a
// function of its samples. The batched first rung and its backend entry point
// stay deleted. So do the retry budget, backoff and circuit breakers: non-test
// code in internal/gateway and cmd/choir-gatewayd names none of them, and
// internal/gateway imports no math/rand. gateway.Config.Batch and
// gateway.Config.Seed (declared only for benchmark/) are neither read nor set
// by the gateway or the CLIs. dsp's BatchSpectrum and NewBatchSpectrum are a
// shim the frozen benchmark/ times, a different thing, and none of the exact
// names below.
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
// checkout takes the PHY and no seed.
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
	if phy := reflect.TypeOf(choir.DefaultPHY()); get.Type.NumIn() != 2 || get.Type.In(1) != phy {
		t.Errorf("BackendPool.Get is %v, want one %v parameter: a checkout names its PHY and has nothing to reseed", get.Type, phy)
	}
}

// TestCommandsShareOneShell enforces DESIGN.md §11: every command runs in
// the one shell of internal/cli. Each main under cmd/ is cli.Main(run);
// non-test code outside internal/cli neither calls signal.NotifyContext or
// os.Exit nor declares an exit-code constant; and nothing under cmd/ calls
// log.Fatal*, which exits past the deferred metrics snapshot.
func TestCommandsShareOneShell(t *testing.T) {
	mains := map[string]bool{} // cmd/ package dir -> its main is cli.Main(run)
	parseSources(t, parser.SkipObjectResolution, func(dir string, f *ast.File) {
		if dir == "internal/cli" {
			return
		}
		command := strings.HasPrefix(dir, "cmd/")
		if command && !mains[dir] {
			mains[dir] = false
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if command && n.Recv == nil && n.Name.Name == "main" && len(n.Body.List) == 1 {
					call, _ := n.Body.List[0].(*ast.ExprStmt)
					mains[dir] = call != nil && types.ExprString(call.X) == "cli.Main(run)"
				}
			case *ast.GenDecl:
				if n.Tok != token.CONST {
					return true
				}
				for _, spec := range n.Specs {
					for _, name := range spec.(*ast.ValueSpec).Names {
						if strings.HasPrefix(strings.ToLower(name.Name), "exit") {
							t.Errorf("%s declares the constant %s: the exit codes are internal/cli's", dir, name.Name)
						}
					}
				}
			case *ast.SelectorExpr:
				x, _ := n.X.(*ast.Ident)
				switch call := types.ExprString(n); {
				case x == nil:
				case call == "signal.NotifyContext", call == "os.Exit":
					t.Errorf("%s calls %s: the signal context and the exit are cli.Main's", dir, call)
				case command && x.Name == "log" && strings.HasPrefix(n.Sel.Name, "Fatal"):
					t.Errorf("%s calls %s: a command returns its exit code to cli.Main", dir, call)
				}
			}
			return true
		})
	})
	if len(mains) == 0 {
		t.Fatal("found no sources under cmd/")
	}
	for dir, ok := range mains {
		if !ok {
			t.Errorf("%s: main is not the one statement cli.Main(run)", dir)
		}
	}
}

// TestNoTestOnlyFunctions enforces the deletion rule: a function, method,
// type, constant or exported variable outside benchmark/ stays only while
// something that runs can reach it, and a field of an exported Config stays
// only while something that runs reads it — an option nothing reads is
// accepted and silently ignored. Reachability is scanReach's: type-checked,
// from every main and init (cmd/, examples/, and frozen benchmark/, whose
// callers keep its shims live), following each declaration a reached body
// names, and through an interface to every live module type implementing it.
// A facade name only the root tests use is dead: they import the internal
// package instead. Anything else must appear in carried, keyed by qualified
// name, with the reason it stays:
//
//	reference: <test>      a test compares live code against it
//	probe/fixture: <test>  another package's test measures or builds with it
//	ROADMAP item N         an open item names it as its input
//	interface: <which>     called through an interface the scan cannot see
//
// A carried declaration is a root too, so the helpers under it need no entry
// of their own. A carried entry that is no longer declared, or that the
// roots reach without it, fails, so the map cannot rot. A probe or fixture
// only its own package's tests use belongs in a _test.go file, not here.
//
// staticcheck's unused check does not cover this ground: it treats every
// exported declaration and every method that satisfies an interface as
// used, which is where the dead code of a module made of internal packages
// hides.
func TestNoTestOnlyFunctions(t *testing.T) {
	if raceEnabled() && testing.Short() {
		t.Skip("-race -short: the scan type-checks the standard library from source; the plain run keeps it")
	}
	carried := map[string]string{
		"internal/linalg.LeastSquares":                "reference: TestFitsMatchExplicitLeastSquares, TestSolveJitteredBitIdentical (linalg.Solve and the Matrix algebra under it)",
		"internal/channel.ApplyMultipath":             "probe/fixture: TestDecodeRobustToResolvableEcho, TestDecodeUnderStrongResolvableEcho",
		"internal/radio.AmplitudeFromDBm":             "probe/fixture: internal/choir/decoder_test.go synthesize",
		"internal/dsp.PaddedSpectrum":                 "probe/fixture: TestCFOShiftsDemodulatedPeakFractionally, TestSpreadingFactorQuasiOrthogonality",
		"internal/dsp.FindPeaks":                      "probe/fixture: TestCFOShiftsDemodulatedPeakFractionally",
		"internal/dsp.Percentile":                     "probe/fixture: TestPopulationDiversity",
		"internal/choir.Decoder.SubtractDecodedUsers": "ROADMAP item 7 (Sec. 7.2, teams under collision; splitTwoToneFit and splitScore under it)",
		"internal/sim/engine.Config.Shards":           "ROADMAP item 9",
		"internal/sim/engine.Config.Workers":          "ROADMAP item 9",
		"internal/gateway.Config.Batch":               "ROADMAP item 9",
		"internal/gateway.Config.Seed":                "ROADMAP item 9",
		"choir.CityGroup":                             "interface: mac.SlotSuccess.Prob's parameter, the name a receiver outside the module implements CityConfig.Receiver with (TestPublicAPIMAC's alohaRx)",
	}
	for key, reason := range carried {
		ok := false
		for _, kind := range []string{"reference: ", "probe/fixture: ", "ROADMAP item ", "interface: "} {
			ok = ok || strings.HasPrefix(reason, kind)
		}
		if !ok {
			t.Errorf("carried[%q] = %q: not one of the four kinds of reason", key, reason)
		}
	}

	r := scanReach(t, ".", "choir", "benchmark", carried)
	if len(r.declared) == 0 {
		t.Fatal("found no declarations")
	}
	keys := make([]string, 0, len(r.declared))
	for key := range r.declared {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		_, isCarried := carried[key]
		switch {
		case !r.kept[key] && !isCarried:
			t.Errorf("%s: nothing that runs reaches or reads it: delete it with its tests, move it into a test file, or carry it with a reason", key)
		case r.live[key] && isCarried:
			t.Errorf("%s is carried but is now reached or read: drop it from carried", key)
		}
	}
	for key := range carried {
		if !r.declared[key] {
			t.Errorf("carried[%q] names nothing that is declared", key)
		}
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestCINamesOnlyTestsThatExist keeps ci.yml's test selections alive: go
// test -run with a pattern that matches nothing exits 0 with "no tests to
// run", so a step whose tests were deleted or renamed would pass while
// running nothing. Every top-level alternative of every -run pattern must
// match a Test function declared in the step's packages ('^$', which runs
// none on purpose, is exempt); every -fuzz target must be a Fuzz function
// declared there; and every Fuzz function of the module must be a -fuzz
// target, which only the fuzz smoke step has.
func TestCINamesOnlyTestsThatExist(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string][]string{} // package dir -> Test and Fuzz functions
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && (strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
				declared[dir] = append(declared[dir], fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	fuzzed := map[string]bool{} // "dir.FuzzName"
	for _, line := range strings.Split(string(ci), "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		var runs, fuzzes, dirs []string
		args := strings.Fields(strings.NewReplacer("'", "", `"`, "").Replace(cmd))
		for i, a := range args {
			switch {
			case a == "-run" && i+1 < len(args):
				runs = append(runs, args[i+1])
			case strings.HasPrefix(a, "-run="):
				runs = append(runs, strings.TrimPrefix(a, "-run="))
			case strings.HasPrefix(a, "-fuzz="):
				fuzzes = append(fuzzes, strings.TrimPrefix(a, "-fuzz="))
			case a == "./...":
				for dir := range declared {
					dirs = append(dirs, dir)
				}
			case a == "." || strings.HasPrefix(a, "./"):
				dirs = append(dirs, strings.TrimPrefix(a, "./"))
			}
		}
		has := func(match func(name string) bool) bool {
			for _, dir := range dirs {
				if slices.ContainsFunc(declared[dir], match) {
					return true
				}
			}
			return false
		}
		for _, pattern := range runs {
			if pattern == "^$" {
				continue
			}
			for _, alt := range topLevelAlternatives(pattern) {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml: -run %q: %v", pattern, err)
					continue
				}
				if !has(func(name string) bool { return strings.HasPrefix(name, "Test") && re.MatchString(name) }) {
					t.Errorf("ci.yml: -run %q: %q matches no Test function in %v", pattern, alt, dirs)
				}
			}
		}
		for _, target := range fuzzes {
			if !has(func(name string) bool { return name == target && strings.HasPrefix(name, "Fuzz") }) {
				t.Errorf("ci.yml: -fuzz=%s is no Fuzz function in %v", target, dirs)
			}
			for _, dir := range dirs {
				fuzzed[dir+"."+target] = true
			}
		}
	}
	for dir, names := range declared {
		for _, name := range names {
			if strings.HasPrefix(name, "Fuzz") && !fuzzed[dir+"."+name] {
				t.Errorf("%s.%s is in no -fuzz= step of ci.yml: add it to the fuzz smoke step", dir, name)
			}
		}
	}
}

// topLevelAlternatives splits a regular expression at the | that no
// parenthesis or character class encloses.
func topLevelAlternatives(pattern string) []string {
	var alts []string
	depth, class, start := 0, false, 0
	for i := 0; i < len(pattern); i++ {
		switch c := pattern[i]; {
		case c == '\\':
			i++
		case class:
			class = c != ']'
		case c == '[':
			class = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == '|' && depth == 0:
			alts = append(alts, pattern[start:i])
			start = i + 1
		}
	}
	return append(alts, pattern[start:])
}

// TestAssemblyIsExactOrder holds the module's assembly kernels to DESIGN.md
// §12's exact-order contract and ROADMAP item 11: no .s file may name a
// fused multiply-add (VFMADD…, VFMSUB…, VFNMADD…, VFNMSUB…), whose single
// rounding would change the generic Go kernels' bits, and every function
// that touches a YMM register runs VZEROUPPER right before each RET, so no
// SSE code after it pays the AVX-SSE transition.
func TestAssemblyIsExactOrder(t *testing.T) {
	fma := regexp.MustCompile(`(?i)\bVFN?M(ADD|SUB)`)
	ymm := regexp.MustCompile(`\bY([0-9]|1[0-5])\b`)
	var files int
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
		if !strings.HasSuffix(path, ".s") {
			return nil
		}
		files++
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var fn, prev string
		var usesYMM bool
		var rets []int
		check := func() {
			if fn != "" && usesYMM && len(rets) > 0 {
				t.Errorf("%s: %s uses YMM registers and returns at line(s) %v without VZEROUPPER first", path, fn, rets)
			}
		}
		for i, line := range strings.Split(string(src), "\n") {
			if c := strings.Index(line, "//"); c >= 0 {
				line = line[:c]
			}
			line = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(line), `\`))
			if line == "" {
				continue
			}
			if fma.MatchString(line) {
				t.Errorf("%s:%d names a fused multiply-add: %s", path, i+1, line)
			}
			fields := strings.Fields(line)
			switch {
			case fields[0] == "TEXT":
				check()
				fn, usesYMM, rets = strings.TrimSuffix(fields[1], ","), false, nil
			case fields[0] == "RET" && prev != "VZEROUPPER":
				rets = append(rets, i+1)
			}
			usesYMM = usesYMM || ymm.MatchString(line)
			prev = fields[0]
		}
		check()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("found no .s files")
	}
}
