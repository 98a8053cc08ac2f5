package sim

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
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
	// Name labels the capture in reports.
	Name string
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
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		h, samples, err := trace.Read(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("sim: fixture %s: %w", name, err)
		}
		fx := CompareFixture{
			Name:       strings.TrimSuffix(filepath.Base(name), filepath.Ext(name)),
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
	// Workers bounds the fan-out (<= 0 selects all CPUs). Results are
	// identical for any worker count.
	Workers int
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

// BackendReport aggregates one backend's results over the whole capture
// grid.
type BackendReport struct {
	// Backend is the registered backend name.
	Backend string
	// Trials is the number of captures decoded.
	Trials int
	// PayloadsExpected and PayloadsRecovered count ground-truth payloads
	// offered and recovered by content; their ratio is the goodput.
	PayloadsExpected  int
	PayloadsRecovered int
	// Errors histograms decode failures by taxonomy class (errors.Is
	// against the choir/lora sentinels), counting both whole-capture
	// failures and per-user failures inside otherwise successful decodes.
	Errors map[string]int
	// DecodeNs is the total wall-clock decode time. It is reported for
	// operators and EXCLUDED from Fingerprint: latency is the one
	// non-deterministic column.
	DecodeNs int64
}

// Goodput returns the fraction of ground-truth payloads recovered.
func (r *BackendReport) Goodput() float64 {
	if r.PayloadsExpected == 0 {
		return 0
	}
	return float64(r.PayloadsRecovered) / float64(r.PayloadsExpected)
}

// CompareResult is the harness output: one report per backend, in
// configuration order.
type CompareResult struct {
	Reports []BackendReport
}

// Fingerprint returns a canonical digest of everything deterministic in
// the result — backend order, trial counts, goodput numerators and
// denominators, and the full error taxonomy — excluding decode latency.
// Two runs of the same configuration must produce equal fingerprints
// whatever the worker count.
func (c *CompareResult) Fingerprint() string {
	var b strings.Builder
	for _, r := range c.Reports {
		fmt.Fprintf(&b, "%s:%d:%d/%d{", r.Backend, r.Trials, r.PayloadsRecovered, r.PayloadsExpected)
		classes := make([]string, 0, len(r.Errors))
		for class := range r.Errors {
			classes = append(classes, class)
		}
		sort.Strings(classes)
		for _, class := range classes {
			fmt.Fprintf(&b, "%s=%d,", class, r.Errors[class])
		}
		b.WriteString("}\n")
	}
	return b.String()
}

// Fprint renders the comparison as an aligned text table: goodput, mean
// decode latency, and the error taxonomy per backend.
func (c *CompareResult) Fprint(w io.Writer) {
	fmt.Fprintln(w, "backend\trecovered/expected\tgoodput\tmean decode\terrors")
	for _, r := range c.Reports {
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

// compareCell is one (backend, capture) decode outcome.
type compareCell struct {
	recovered, expected int
	errClasses          []string
	ns                  int64
}

// Compare runs the head-to-head comparison. Once ctx fires no new decode
// starts and the context's error is returned instead of a partial result.
func Compare(ctx context.Context, cfg CompareConfig) (*CompareResult, error) {
	if cfg.Params.SF == 0 {
		cfg.Params = lora.DefaultParams()
	}
	backends := cfg.Backends
	if len(backends) == 0 {
		backends = backend.Names()
	}
	if cfg.Trials > 0 && (cfg.PayloadLen <= 0 || cfg.Users <= 0) {
		return nil, fmt.Errorf("sim: compare needs positive PayloadLen/Users for synthesized trials, got %d/%d",
			cfg.PayloadLen, cfg.Users)
	}
	classes := cfg.Classes
	if len(classes) == 0 {
		classes = fault.Classes()
	}
	var injs []fault.Injector
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
	// Captures per backend: fixtures, clean trials, then the fault grid.
	nCaptures := len(cfg.Fixtures) + cfg.Trials + len(injs)*cfg.FaultTrials
	if nCaptures == 0 {
		return nil, fmt.Errorf("sim: compare with no fixtures, trials, or fault cells")
	}

	// One pool per (backend, PHY): built up front so an unknown backend
	// name fails fast instead of inside the fan-out.
	pools := map[string]map[lora.Params]*backend.Pool{}
	for _, name := range backends {
		if pools[name] != nil {
			return nil, fmt.Errorf("sim: backend %q appears twice in comparison", name)
		}
		byPHY := map[lora.Params]*backend.Pool{}
		params := []lora.Params{cfg.Params}
		for _, fx := range cfg.Fixtures {
			params = append(params, fx.Params)
		}
		for _, p := range params {
			if byPHY[p] != nil {
				continue
			}
			pool, err := backend.NewPool(name, p)
			if err != nil {
				return nil, fmt.Errorf("sim: compare backend %q: %w", name, err)
			}
			byPHY[p] = pool
		}
		pools[name] = byPHY
	}

	pool := exec.NewPool(cfg.Workers)
	cells, err := exec.Map(ctx, pool, len(backends)*nCaptures, func(k int) compareCell {
		bi, capIdx := k/nCaptures, k%nCaptures
		name := backends[bi]
		switch {
		case capIdx < len(cfg.Fixtures):
			fx := cfg.Fixtures[capIdx]
			return decodeCapture(ctx, pools[name][fx.Params], fx.Samples, fx.PayloadLen, fx.Truth)
		case capIdx < len(cfg.Fixtures)+cfg.Trials:
			trial := capIdx - len(cfg.Fixtures)
			// The scenario seed depends ONLY on the trial index — identical
			// captures for every backend (and shared with the fault grid's
			// zero-intensity anchors, like the fault sweep).
			scSeed := exec.DeriveSeed(cfg.Seed, uint64(trial))
			sc := Scenario{
				Params:     cfg.Params,
				PayloadLen: cfg.PayloadLen,
				SNRsDB:     repeat(cfg.SNRDB, cfg.Users),
				Seed:       scSeed,
			}
			sig, truth := sc.Synthesize()
			return decodeCapture(ctx, pools[name][cfg.Params], sig, cfg.PayloadLen, truth)
		default:
			j := capIdx - len(cfg.Fixtures) - cfg.Trials
			ci, trial := j/cfg.FaultTrials, j%cfg.FaultTrials
			scSeed := exec.DeriveSeed(cfg.Seed, uint64(trial))
			sc := Scenario{
				Params:     cfg.Params,
				PayloadLen: cfg.PayloadLen,
				SNRsDB:     repeat(cfg.SNRDB, cfg.Users),
				Seed:       scSeed,
			}
			sig, truth := sc.Synthesize()
			faultSeed := exec.DeriveSeed(cfg.Seed, 0xFA017, uint64(ci), uint64(trial))
			sig = injs[ci].Apply(sig, faultSeed)
			return decodeCapture(ctx, pools[name][cfg.Params], sig, cfg.PayloadLen, truth)
		}
	})
	if err != nil {
		return nil, err
	}

	result := &CompareResult{}
	for bi, name := range backends {
		r := BackendReport{Backend: name, Errors: map[string]int{}}
		for capIdx := 0; capIdx < nCaptures; capIdx++ {
			c := cells[bi*nCaptures+capIdx]
			r.Trials++
			r.PayloadsExpected += c.expected
			r.PayloadsRecovered += c.recovered
			r.DecodeNs += c.ns
			for _, class := range c.errClasses {
				r.Errors[class]++
			}
		}
		result.Reports = append(result.Reports, r)
	}
	return result, nil
}

// decodeCapture runs one capture through one backend instance checked out
// of pl, counting recovered ground-truth payloads and classifying both
// whole-capture and per-user failures.
func decodeCapture(ctx context.Context, pl *backend.Pool, samples []complex128, payloadLen int, truth [][]byte) compareCell {
	b := pl.Get()
	defer pl.Put(b)
	cell := compareCell{expected: len(truth)}
	t0 := time.Now()
	res, err := backend.Decode(ctx, b, samples, payloadLen)
	cell.ns = time.Since(t0).Nanoseconds()
	if err != nil {
		cell.errClasses = append(cell.errClasses, taxonomyClass(err))
		return cell
	}
	cell.recovered = countRecovered(res.DecodedPayloads(), truth)
	for _, u := range res.Users {
		if !u.Decoded() && u.Err != nil {
			cell.errClasses = append(cell.errClasses, taxonomyClass(u.Err))
		}
	}
	return cell
}

// taxonomyClass maps an error to its decode-taxonomy class via errors.Is,
// so wrapped chains classify by their sentinel rather than their message.
func taxonomyClass(err error) string {
	switch {
	case errors.Is(err, choir.ErrDeadline):
		return "deadline"
	case errors.Is(err, choir.ErrCanceled):
		return "canceled"
	case errors.Is(err, choir.ErrBadIQ):
		return "bad_iq"
	case errors.Is(err, choir.ErrSaturated):
		return "saturated"
	case errors.Is(err, choir.ErrTrackingLost):
		return "tracking_lost"
	case errors.Is(err, choir.ErrNoUsers):
		return "no_users"
	case errors.Is(err, choir.ErrNotDetected):
		return "not_detected"
	case errors.Is(err, lora.ErrShortSignal):
		return "short_signal"
	case errors.Is(err, lora.ErrCRC):
		return "crc"
	default:
		return "other"
	}
}
