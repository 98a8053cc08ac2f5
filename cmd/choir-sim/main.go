// Command choir-sim regenerates the paper's evaluation figures from the
// simulation harness and prints them as aligned text tables.
//
// Usage:
//
//	choir-sim -exp fig8d              # one experiment
//	choir-sim -exp all                # everything (slow with -calibrate)
//	choir-sim -exp fig8d -calibrate   # drive Choir with IQ-level Monte-Carlo
//	choir-sim -exp faultsweep -fault drop -fault-rate 0.4
//	choir-sim -exp city -nodes 100000,1000000   # city-scale density sweep
//	choir-sim -exp interfere -nodes 200,500 -foreign-nodes 200  # vs ADR under interference
//	choir-sim -exp compare            # head-to-head backend comparison
//	choir-sim -exp compare -backends choir,superposed \
//	    -fixtures 'internal/choir/testdata/golden/*.iq'
//
// Experiments: fig7ab fig7cd fig8abc fig8d fig8e fig8f fig9a fig9b fig10
// fig11a fig11b fig12 e2e faultsweep headline city interfere all compare
//
// -exp compare runs every backend (or -backends) over -trials synthesized
// collisions, a compact fault sweep and any -fixtures. It is not part of
// all: its mean-decode column is wall-clock time.
//
// Trial sweeps use every CPU and print the same tables at any width;
// GOMAXPROCS=1 runs them serially.
//
// -exp city runs the event-driven city-scale engine (DESIGN.md §15) as a
// density sweep over -nodes, with -gateways/-arrival shaping the
// deployment.
//
// -exp interfere runs the multi-network interference suite (DESIGN.md §17):
// a paired goodput-vs-density sweep comparing Choir's collision decoding
// against the four ADR policies, under -foreign-networks co-channel foreign
// networks of -foreign-nodes nodes each and a -capture-margin dB capture
// model.
//
// SIGINT/SIGTERM cancel the in-flight experiment cooperatively: no new
// trial starts, the metrics snapshot still flushes, and the process exits
// with code 130 (interrupted) rather than 1 (failed).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"choir"
	"choir/internal/obs"
)

// Exit codes: 0 success, 1 failure, 2 usage, 130 interrupted by signal
// (128+SIGINT, the shell convention).
const (
	exitOK          = 0
	exitFailed      = 1
	exitUsage       = 2
	exitInterrupted = 130
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit so tests can drive the
// whole command: ctx carries the signal-triggered cancellation, argv
// excludes the program name, and the exit code is returned instead of
// passed to os.Exit.
func run(ctx context.Context, argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("choir-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "headline", "experiment id (fig7ab..fig12, headline, all, compare)")
	calibrate := fs.Bool("calibrate", false, "calibrate the Choir MAC model with the IQ-level decoder")
	slots := fs.Int("slots", 4000, "MAC simulation length in slots")
	seed := fs.Uint64("seed", 7, "simulation seed")
	nodesList := fs.String("nodes", "1000,10000,100000", "comma-separated node counts for the -exp city density sweep")
	gateways := fs.Int("gateways", 1, "gateway count for -exp city")
	arrival := fs.Float64("arrival", 2e-5, "per-node per-slot arrival probability for -exp city")
	foreignNets := fs.Int("foreign-networks", 1, "co-channel foreign network count for -exp interfere")
	foreignNodes := fs.Int("foreign-nodes", 1000, "nodes per foreign network for -exp interfere")
	foreignArrival := fs.Float64("foreign-arrival", 0, "per-foreign-node per-slot offered load for -exp interfere (0 = same as -arrival)")
	captureMargin := fs.Float64("capture-margin", 6, "capture-effect power margin in dB for -exp interfere (0 disables capture and cross-SF leakage)")
	faultClass := fs.String("fault", "all", "fault class for -exp faultsweep: clip, drop, interferer, drift, truncate, or all")
	faultRate := fs.Float64("fault-rate", 0, "single fault intensity in (0,1] for -exp faultsweep; 0 sweeps the default intensity grid")
	backends := fs.String("backends", "", "comma-separated backend names for -exp compare (default: every registered backend)")
	fixtureGlob := fs.String("fixtures", "", "trace glob fed to every backend in -exp compare (e.g. 'internal/choir/testdata/golden/*.iq')")
	compareTrials := fs.Int("trials", 0, "synthesized clean collisions per backend for -exp compare (0 = the default comparison grid)")
	metrics := fs.Bool("metrics", false, "record decode/MAC metrics and dump a JSON snapshot at exit")
	metricsOut := fs.String("metrics-out", "", "metrics snapshot destination (default or \"-\": stderr)")
	debugAddr := fs.String("debug-addr", "", "serve expvar and pprof on this address (e.g. localhost:6060); implies metrics recording")
	if err := fs.Parse(argv); err != nil {
		return exitUsage
	}
	// A negative count would otherwise read as zero: no foreign network, or
	// the default comparison grid.
	for _, f := range []struct {
		name string
		n    int
	}{{"foreign-networks", *foreignNets}, {"trials", *compareTrials}} {
		if f.n < 0 {
			fmt.Fprintf(stderr, "choir-sim: -%s %d < 0\n", f.name, f.n)
			return exitFailed
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}

	dumpMetrics, stopDebug, err := obs.StartCLI(*metrics, *metricsOut, *debugAddr)
	if err != nil {
		fmt.Fprintln(stderr, "choir-sim:", err)
		return exitFailed
	}
	defer stopDebug()
	// The snapshot flushes even on interrupt: partial sweeps still leave
	// their counters behind for post-mortem.
	defer func() {
		if err := dumpMetrics(); err != nil {
			fmt.Fprintln(stderr, "choir-sim: metrics dump:", err)
		}
	}()

	cfg := choir.DefaultFig8()
	cfg.Slots = *slots
	cfg.Seed = *seed
	if !*calibrate {
		cfg.Calibration.Trials = 0
	}

	runners := map[string]func(context.Context) error{
		"fig7ab": func(context.Context) error { choir.Fig7Offsets(30, *seed).Fprint(stdout); return nil },
		"fig7cd": func(ctx context.Context) error {
			fig, err := choir.Fig7Stability(ctx, 4, *seed)
			if err != nil {
				return err
			}
			fig.Fprint(stdout)
			return nil
		},
		"fig8abc": func(ctx context.Context) error {
			for _, m := range []choir.ExperimentMetric{choir.MetricThroughput, choir.MetricLatency, choir.MetricTxCount} {
				fig, err := choir.Fig8SNR(ctx, cfg, m)
				if err != nil {
					return err
				}
				fig.Fprint(stdout)
				fmt.Fprintln(stdout)
			}
			return nil
		},
		"fig8d": figUsers(cfg, choir.MetricThroughput, stdout),
		"fig8e": figUsers(cfg, choir.MetricLatency, stdout),
		"fig8f": figUsers(cfg, choir.MetricTxCount, stdout),
		"fig9a": func(context.Context) error { choir.Fig9Throughput(-22, 30).Fprint(stdout); return nil },
		"fig9b": func(context.Context) error { choir.Fig9Range(30).Fprint(stdout); return nil },
		"fig10": func(ctx context.Context) error {
			fig, err := choir.Fig10Resolution(ctx, []float64{200, 600, 1000, 1400, 1800, 2200, 2600, 3000}, 5, *seed)
			if err != nil {
				return err
			}
			fig.Fprint(stdout)
			return nil
		},
		"fig11a": func(ctx context.Context) error {
			fig, err := choir.Fig11Grouping(ctx, 6, 20, *seed)
			if err != nil {
				return err
			}
			fig.Fprint(stdout)
			return nil
		},
		"fig11b": func(ctx context.Context) error {
			fig, err := choir.Fig11Throughput(ctx, cfg, 10, 4, 5)
			if err != nil {
				return err
			}
			fig.Fprint(stdout)
			return nil
		},
		"fig12": func(ctx context.Context) error {
			f12 := choir.DefaultFig12()
			f12.Fig8 = cfg
			fig, err := choir.Fig12MUMIMO(ctx, f12)
			if err != nil {
				return err
			}
			fig.Fprint(stdout)
			return nil
		},
		"e2e": func(ctx context.Context) error {
			rep, err := choir.EndToEnd(ctx, choir.DefaultE2E())
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, rep)
			return nil
		},
		"faultsweep": func(ctx context.Context) error {
			// The reference backend's fault cells of a comparison grid:
			// two-user collisions at comfortable SNR, every fault class,
			// intensities 0-0.8, and no clean trials (intensity 0 decodes
			// the same collisions untouched).
			fsw := choir.DefaultCompare()
			fsw.Backends = []string{"choir"}
			fsw.PayloadLen, fsw.Users, fsw.SNRDB = 8, 2, 25
			fsw.Trials = 0
			fsw.Intensities = []float64{0, 0.1, 0.2, 0.4, 0.6, 0.8}
			fsw.FaultTrials = 10
			fsw.Seed = *seed
			if *faultClass != "all" {
				c, err := choir.ParseFaultClass(*faultClass)
				if err != nil {
					return err
				}
				fsw.Classes = []choir.FaultClass{c}
			}
			if *faultRate != 0 {
				// A single requested rate still carries the zero-intensity
				// anchor so the unfaulted baseline prints alongside it.
				fsw.Intensities = []float64{0, *faultRate}
			}
			res, err := choir.CompareBackends(ctx, fsw)
			if err != nil {
				return err
			}
			res.FaultFigure("choir").Fprint(stdout)
			return nil
		},
		"compare": func(ctx context.Context) error {
			ccfg := choir.DefaultCompare()
			ccfg.Seed = *seed
			if *backends != "" {
				ccfg.Backends = strings.Split(*backends, ",")
			}
			if *compareTrials > 0 {
				ccfg.Trials = *compareTrials
			}
			if *fixtureGlob != "" {
				fixtures, err := choir.LoadCompareFixtures(*fixtureGlob)
				if err != nil {
					return err
				}
				ccfg.Fixtures = fixtures
			}
			res, err := choir.CompareBackends(ctx, ccfg)
			if err != nil {
				return err
			}
			res.Fprint(stdout)
			return nil
		},
		"city": func(ctx context.Context) error {
			densities, err := parseNodeList(*nodesList)
			if err != nil {
				return err
			}
			base := choir.CityConfig{
				Scheme:         choir.SchemeChoir,
				Gateways:       *gateways,
				Slots:          *slots,
				ArrivalPerSlot: *arrival,
				Receiver:       choir.CityModelReceiver{Success: choir.AnalyticChoirTable(30, 0.95, 14), MaxConcurrent: 30},
				Seed:           *seed,
			}
			points, err := choir.CityDensitySweep(ctx, base, densities)
			if err != nil {
				return err
			}
			choir.FprintCitySweep(stdout, points)
			return nil
		},
		"interfere": func(ctx context.Context) error {
			densities, err := parseNodeList(*nodesList)
			if err != nil {
				return err
			}
			fa := *foreignArrival
			if fa == 0 {
				fa = *arrival
			}
			scfg := choir.InterfereSweepConfig{
				Base: choir.CityConfig{
					Gateways:       *gateways,
					Slots:          *slots,
					ArrivalPerSlot: *arrival,
					Seed:           *seed,
				},
				Densities: densities,
				MarginDB:  *captureMargin,
			}
			for i := 0; i < *foreignNets; i++ {
				scfg.Base.Foreign = append(scfg.Base.Foreign, choir.CityForeignConfig{
					Nodes:          *foreignNodes,
					ArrivalPerSlot: fa,
					ADR:            choir.CityADRFastestSNR,
				})
			}
			sweep, err := choir.RunInterfereSweep(ctx, scfg)
			if err != nil {
				return err
			}
			choir.FprintInterfereSweep(stdout, sweep)
			return nil
		},
		"headline": func(ctx context.Context) error {
			h, err := choir.ComputeHeadline(ctx, cfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "throughput gain vs ALOHA : %6.2fx  (paper: 29.02x)\n", h.ThroughputGainVsAloha)
			fmt.Fprintf(stdout, "throughput gain vs Oracle: %6.2fx  (paper:  6.84x)\n", h.ThroughputGainVsOracle)
			fmt.Fprintf(stdout, "latency reduction        : %6.2fx  (paper:  4.88x)\n", h.LatencyReduction)
			fmt.Fprintf(stdout, "transmission reduction   : %6.2fx  (paper:  4.54x)\n", h.TxReduction)
			fmt.Fprintf(stdout, "range gain @30-node teams: %6.2fx  (paper:  2.65x)\n", h.RangeGain)
			return nil
		},
	}

	order := []string{"fig7ab", "fig7cd", "fig8abc", "fig8d", "fig8e", "fig8f",
		"fig9a", "fig9b", "fig10", "fig11a", "fig11b", "fig12", "e2e", "faultsweep", "headline", "city", "interfere"}

	report := func(id string, err error) int {
		// Interrupted and failed are different outcomes: a canceled context
		// means the user asked to stop, not that the experiment is wrong.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(stderr, "choir-sim: %s interrupted: %v\n", id, err)
			return exitInterrupted
		}
		fmt.Fprintf(stderr, "choir-sim: %s: %v\n", id, err)
		return exitFailed
	}

	if *exp == "all" {
		for _, id := range order {
			fmt.Fprintf(stdout, "==== %s ====\n", id)
			if err := runners[id](ctx); err != nil {
				return report(id, err)
			}
			fmt.Fprintln(stdout)
		}
		return exitOK
	}
	runner, ok := runners[*exp]
	if !ok {
		fmt.Fprintf(stderr, "choir-sim: unknown experiment %q; one of %v, all or compare\n", *exp, order)
		return exitUsage
	}
	if err := runner(ctx); err != nil {
		return report(*exp, err)
	}
	return exitOK
}

// parseNodeList parses the -nodes flag: comma-separated positive node
// counts, e.g. "1000,10000,100000".
func parseNodeList(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -nodes entry %q: want positive integers like 1000,10000", p)
		}
		out = append(out, n)
	}
	return out, nil
}

func figUsers(cfg choir.ExperimentConfig, m choir.ExperimentMetric, stdout io.Writer) func(context.Context) error {
	return func(ctx context.Context) error {
		fig, err := choir.Fig8Users(ctx, cfg, m)
		if err != nil {
			return err
		}
		fig.Fprint(stdout)
		return nil
	}
}
