package sim

import (
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"choir/internal/backend"
	"choir/internal/choir"
	"choir/internal/exec"
	"choir/internal/fault"
	"choir/internal/lora"
	"choir/internal/trace"
)

// CompareFixture is one pre-rendered capture fed to every backend in a
// comparison — typically a golden-trace fixture with its ground-truth
// payloads.
type CompareFixture struct {
	// Params is the capture's PHY configuration.
	Params lora.Params
	// PayloadLen is the payload size in bytes.
	PayloadLen int
	// Samples is the IQ capture.
	Samples []complex128
	// Truth holds the transmitted payloads (recovery is counted by
	// content, as everywhere in the harness).
	Truth [][]byte
}

// LoadCompareFixtures reads every trace capture matching glob (e.g.
// "internal/choir/testdata/golden/*.iq") into comparison fixtures, taking
// ground-truth payloads from the trace headers. Files are loaded in sorted
// order so fixture indices are stable.
func LoadCompareFixtures(glob string) ([]CompareFixture, error) {
	names, err := filepath.Glob(glob)
	if err != nil {
		return nil, fmt.Errorf("sim: fixture glob %q: %w", glob, err)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("sim: no fixtures match %q", glob)
	}
	sort.Strings(names)
	var fixtures []CompareFixture
	for _, name := range names {
		h, samples, err := trace.ReadFile(name)
		if err != nil {
			return nil, fmt.Errorf("sim: fixture %s: %w", name, err)
		}
		fx := CompareFixture{
			Params:     h.Params,
			PayloadLen: h.PayloadLen,
			Samples:    samples,
		}
		for _, u := range h.Users {
			p, err := hex.DecodeString(u)
			if err != nil {
				return nil, fmt.Errorf("sim: fixture %s: bad truth payload %q: %w", name, u, err)
			}
			fx.Truth = append(fx.Truth, p)
		}
		fixtures = append(fixtures, fx)
	}
	return fixtures, nil
}

// CompareConfig parameterizes the head-to-head backend comparison: the same
// capture set — golden fixtures, freshly synthesized collisions, and a
// fault sweep — decoded by every backend in the grid.
type CompareConfig struct {
	// Params is the PHY configuration for synthesized trials (DefaultParams
	// if zero SF). Fixtures carry their own.
	Params lora.Params
	// Backends is the list of registered backend names to compare
	// (backend.Names() — every registered backend — when empty).
	Backends []string
	// Fixtures are pre-rendered captures every backend decodes.
	Fixtures []CompareFixture
	// PayloadLen is the payload size for synthesized trials.
	PayloadLen int
	// Users is the number of colliding transmitters per synthesized trial.
	Users int
	// SNRDB is each user's per-sample receive SNR in synthesized trials.
	SNRDB float64
	// Trials is the number of clean synthesized collisions per backend.
	Trials int
	// Classes selects the fault classes for the faulted portion of the
	// grid (all classes when empty; set FaultTrials 0 to skip faults).
	Classes []fault.Class
	// Intensities is the fault-intensity grid.
	Intensities []float64
	// FaultTrials is the number of collisions per (class, intensity) cell.
	FaultTrials int
	// Seed drives all randomness. Scenario seeds depend only on the trial
	// coordinates — never on the backend — so every backend decodes
	// byte-identical captures and the comparison measures the algorithm,
	// not scenario luck.
	Seed uint64
}

// DefaultCompare returns the comparison cmd/choir-sim runs: every
// registered backend over two-user collisions at comfortable SNR plus a
// compact fault sweep.
func DefaultCompare() CompareConfig {
	return CompareConfig{
		Params:      lora.DefaultParams(),
		PayloadLen:  8,
		Users:       2,
		SNRDB:       20,
		Trials:      10,
		Intensities: []float64{0.2, 0.5},
		FaultTrials: 2,
		Seed:        1,
	}
}

// CompareRow is one backend's outcome over one capture group: a fixture,
// the clean synthesized trials, or one (fault class, intensity) cell. The
// rows are the comparison's cells; the backend table Fprint prints and the
// fault figure are folds of them.
type CompareRow struct {
	// Backend is the registered backend name.
	Backend string
	// Fault is a fault cell's injector; nil for fixtures and clean trials.
	Fault *fault.Injector
	// Trials is the number of captures decoded.
	Trials int
	// PayloadsExpected and PayloadsRecovered count ground-truth payloads
	// offered and recovered by content; their ratio is the goodput.
	PayloadsExpected  int
	PayloadsRecovered int
	// Errors histograms decode failures by taxonomy class
	// (choir.ErrClass), counting both whole-capture
	// failures and per-user failures inside otherwise successful decodes.
	Errors map[string]int
	// DecodeNs is the total wall-clock decode time: reported for
	// operators, and the one column that is not a function of the
	// configuration.
	DecodeNs int64
}

// Goodput returns the fraction of ground-truth payloads recovered.
func (r CompareRow) Goodput() float64 {
	if r.PayloadsExpected == 0 {
		return 0
	}
	return float64(r.PayloadsRecovered) / float64(r.PayloadsExpected)
}

// fold returns labels — a row's Backend and Fault — with rows' captures
// added in order: trials, payload counts, decode time and error classes. It
// is the one reduction of a comparison cell, a backend's table line and a
// calibration size.
func fold(labels CompareRow, rows []CompareRow) CompareRow {
	labels.Errors = map[string]int{}
	for _, r := range rows {
		labels.Trials += r.Trials
		labels.PayloadsExpected += r.PayloadsExpected
		labels.PayloadsRecovered += r.PayloadsRecovered
		labels.DecodeNs += r.DecodeNs
		for class, n := range r.Errors {
			labels.Errors[class] += n
		}
	}
	return labels
}

// CompareResult is the harness output: one row per backend and capture
// group, backend by backend in configuration order, and within a backend
// the fixtures, the clean trials, then the fault cells class by class.
type CompareResult struct {
	Rows []CompareRow
}

// Fprint renders the comparison as an aligned text table: goodput, mean
// decode latency, and the error taxonomy per backend, each the fold of
// that backend's rows.
func (c *CompareResult) Fprint(w io.Writer) {
	fmt.Fprintln(w, "backend\trecovered/expected\tgoodput\tmean decode\terrors")
	for rows := c.Rows; len(rows) > 0; {
		n := 1
		for n < len(rows) && rows[n].Backend == rows[0].Backend {
			n++
		}
		r := fold(CompareRow{Backend: rows[0].Backend}, rows[:n])
		rows = rows[n:]
		mean := time.Duration(0)
		if r.Trials > 0 {
			mean = time.Duration(r.DecodeNs / int64(r.Trials))
		}
		classes := make([]string, 0, len(r.Errors))
		for class := range r.Errors {
			classes = append(classes, class)
		}
		sort.Strings(classes)
		errCol := make([]string, 0, len(classes))
		for _, class := range classes {
			errCol = append(errCol, fmt.Sprintf("%s:%d", class, r.Errors[class]))
		}
		if len(errCol) == 0 {
			errCol = append(errCol, "-")
		}
		fmt.Fprintf(w, "%s\t%d/%d\t%.3f\t%s\t%s\n",
			r.Backend, r.PayloadsRecovered, r.PayloadsExpected, r.Goodput(),
			mean.Round(time.Microsecond), strings.Join(errCol, " "))
	}
}

// FaultFigure returns the named backend's fault cells as decode success
// versus fault intensity: one series per fault class, one point per
// intensity, in grid order.
func (c *CompareResult) FaultFigure(name string) *Figure {
	fig := &Figure{
		ID:     "fault",
		Title:  "Decode success vs. fault intensity",
		XLabel: "fault intensity",
		YLabel: "fraction of payloads recovered",
	}
	for _, r := range c.Rows {
		if r.Backend != name || r.Fault == nil {
			continue
		}
		class := r.Fault.Class().String()
		if n := len(fig.Series); n == 0 || fig.Series[n-1].Name != class {
			fig.Series = append(fig.Series, Series{Name: class})
		}
		s := &fig.Series[len(fig.Series)-1]
		s.X = append(s.X, r.Fault.Intensity())
		s.Y = append(s.Y, r.Goodput())
	}
	return fig
}

// Compare runs the head-to-head comparison. Once ctx fires no new decode
// starts and the context's error is returned instead of a partial result;
// a decode already started runs to completion (trialCtx).
func Compare(ctx context.Context, cfg CompareConfig) (*CompareResult, error) {
	if cfg.Params.SF == 0 {
		cfg.Params = lora.DefaultParams()
	}
	backends := cfg.Backends
	if len(backends) == 0 {
		backends = backend.Names()
	}
	classes := cfg.Classes
	if len(classes) == 0 {
		classes = fault.Classes()
	}
	var injs []*fault.Injector
	if cfg.FaultTrials > 0 {
		for _, c := range classes {
			for _, r := range cfg.Intensities {
				inj, err := fault.New(c, r)
				if err != nil {
					return nil, err
				}
				injs = append(injs, inj)
			}
		}
	}
	if (cfg.Trials > 0 || len(injs) > 0) && (cfg.PayloadLen <= 0 || cfg.Users <= 0) {
		return nil, fmt.Errorf("sim: compare needs positive PayloadLen/Users for synthesized captures, got %d/%d",
			cfg.PayloadLen, cfg.Users)
	}

	if len(cfg.Fixtures) == 0 && cfg.Trials <= 0 && len(injs) == 0 {
		return nil, fmt.Errorf("sim: compare with no fixtures, trials, or fault cells")
	}

	// One pool per backend, and the synthesized captures' PHY checked, up
	// front: a bad name or PHY fails fast instead of inside the fan-out.
	// A fixture's PHY was checked when its trace was read.
	if err := cfg.Params.Validate(); err != nil {
		return nil, fmt.Errorf("sim: compare: %w", err)
	}
	pools := map[string]*backend.Pool{}
	for _, name := range backends {
		if pools[name] != nil {
			return nil, fmt.Errorf("sim: backend %q appears twice in comparison", name)
		}
		pool, err := backend.NewPool(name)
		if err != nil {
			return nil, fmt.Errorf("sim: compare: %w", err)
		}
		pools[name] = pool
	}

	// The grid's cells, one per row: backend by backend, each fixture, the
	// clean trials, then the fault cells.
	type cell struct {
		row CompareRow      // the row's labels
		fx  *CompareFixture // nil for synthesized captures
		fi  int             // row.Fault's index in the fault grid, which seeds its corruption
	}
	var cells []cell
	var trials []int
	for _, name := range backends {
		for i := range cfg.Fixtures {
			fx := &cfg.Fixtures[i]
			cells = append(cells, cell{row: CompareRow{Backend: name}, fx: fx})
			trials = append(trials, 1)
		}
		if cfg.Trials > 0 {
			cells = append(cells, cell{row: CompareRow{Backend: name}})
			trials = append(trials, cfg.Trials)
		}
		for fi, inj := range injs {
			cells = append(cells, cell{row: CompareRow{Backend: name, Fault: inj}, fi: fi})
			trials = append(trials, cfg.FaultTrials)
		}
	}

	results, err := grid(ctx, trials, func(ci, trial int) CompareRow {
		c := cells[ci]
		pool := pools[c.row.Backend]
		if c.fx != nil {
			return decodeCapture(pool, c.fx.Params, c.fx.Samples, c.fx.PayloadLen, c.fx.Truth)
		}
		// The scenario seed depends ONLY on the trial index: every backend
		// and every fault cell decodes the same collisions, and a
		// zero-intensity cell reproduces the clean trials exactly (same
		// scenario, untouched samples).
		sc := Scenario{
			Params:     cfg.Params,
			PayloadLen: cfg.PayloadLen,
			SNRsDB:     repeat(cfg.SNRDB, cfg.Users),
			Seed:       exec.DeriveSeed(cfg.Seed, uint64(trial)),
		}
		sig, truth := sc.Synthesize()
		if c.row.Fault != nil {
			sig = c.row.Fault.Apply(sig, exec.DeriveSeed(cfg.Seed, 0xFA017, uint64(c.fi), uint64(trial)))
		}
		return decodeCapture(pool, cfg.Params, sig, cfg.PayloadLen, truth)
	})
	if err != nil {
		return nil, err
	}
	result := &CompareResult{Rows: make([]CompareRow, len(cells))}
	for i, c := range cells {
		result.Rows[i] = fold(c.row, results[i])
	}
	return result, nil
}

// decodeCapture runs one capture at PHY p through one backend instance
// checked out of pl, counting recovered ground-truth payloads and
// classifying both whole-capture and per-user failures, and returns it as a
// one-trial row. A PHY no instance can be built for fails the capture.
func decodeCapture(pl *backend.Pool, p lora.Params, samples []complex128, payloadLen int, truth [][]byte) CompareRow {
	cell := CompareRow{Trials: 1, PayloadsExpected: len(truth), Errors: map[string]int{}}
	b, err := pl.Get(p)
	if err != nil {
		cell.Errors[choir.ErrClass(err)]++
		return cell
	}
	defer pl.Put(p, b)
	t0 := time.Now()
	res, err := backend.Decode(trialCtx, b, samples, payloadLen)
	cell.DecodeNs = time.Since(t0).Nanoseconds()
	cell.PayloadsRecovered = len(scoreTrial(res, err, truth))
	if err != nil {
		cell.Errors[choir.ErrClass(err)]++
		return cell
	}
	for _, u := range res.Users {
		if !u.Decoded() && u.Err != nil {
			cell.Errors[choir.ErrClass(u.Err)]++
		}
	}
	return cell
}

// repeat returns a slice of n copies of v.
func repeat[T any](v T, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = v
	}
	return out
}
