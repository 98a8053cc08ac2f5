// Command choir-gen synthesizes a LoRa collision and writes it as an IQ
// trace file (see internal/trace) — the simulated equivalent of capturing a
// collision with a USRP. choir-decode and choir-gatewayd read the file, and
// its bytes are also one frame of choir-gatewayd's TCP ingest.
//
// Usage:
//
//	choir-gen -users 3 -snr 15 -out collision.iq
//	choir-gen -users 10 -team -snr -12 -out team.iq   # identical payloads
//	nc localhost 7373 < collision.iq                  # to choir-gatewayd -listen :7373
//
// It exits 1 without writing a trace when -users is below 1, -payload is
// outside [0, 255] (the trace format's payload bound) or the collision
// synthesizes to a non-finite sample (an -snr too large for float64), 2 on
// a bad flag or a non-finite -snr, and 130 when SIGINT/SIGTERM arrive
// before the trace is written; the metrics snapshot flushes in every case
// but a usage error.
package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/cmplx"
	"os"

	"choir"
	"choir/internal/cli"
	"choir/internal/lora"
	"choir/internal/sim"
	"choir/internal/trace"
)

func main() { cli.Main(run) }

// run is the command with its environment made explicit (see internal/cli).
func run(ctx context.Context, argv []string, stdout, stderr io.Writer) int {
	cmd := cli.New("choir-gen", stderr)
	users := cmd.Int("users", 2, "number of colliding transmitters")
	snr := cmd.Float64("snr", 15, "per-user receive SNR in dB")
	team := cmd.Bool("team", false, "all users transmit the same payload (Sec. 7 team mode)")
	payloadLen := cmd.Int("payload", 8, "payload length in bytes")
	seed := cmd.Uint64("seed", 1, "synthesis seed")
	out := cmd.String("out", "collision.iq", "output trace path")
	if err := cmd.Parse(argv); err != nil {
		return cli.ExitUsage
	}
	if math.IsNaN(*snr) || math.IsInf(*snr, 0) {
		fmt.Fprintf(stderr, "choir-gen: -snr %g is not a finite dB value\n", *snr)
		return cli.ExitUsage
	}
	stop, err := cmd.Start()
	if err != nil {
		fmt.Fprintln(stderr, "choir-gen:", err)
		return cli.ExitFailed
	}
	defer stop()

	code := cli.ExitOK
	if err := generate(ctx, stdout, *users, *snr, *team, *payloadLen, *seed, *out); err != nil {
		fmt.Fprintln(stderr, "choir-gen:", err)
		code = cli.ExitFailed
	}
	return cmd.Exit(ctx, code)
}

// generate synthesizes the collision and writes its trace to out. It writes
// nothing for a setting no reader accepts, or once ctx has fired.
func generate(ctx context.Context, stdout io.Writer, users int, snr float64, team bool, payloadLen int, seed uint64, out string) error {
	if users < 1 {
		return fmt.Errorf("-users %d < 1", users)
	}
	if err := lora.CheckPayloadLen(payloadLen); err != nil {
		return fmt.Errorf("-payload: %w", err)
	}
	snrs := make([]float64, users)
	for i := range snrs {
		snrs[i] = snr
	}
	sc := sim.Scenario{
		Params:     choir.DefaultPHY(),
		PayloadLen: payloadLen,
		SNRsDB:     snrs,
		Identical:  team,
		Seed:       seed,
	}
	samples, payloads := sc.Synthesize()
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, v := range samples {
		if cmplx.IsNaN(v) || cmplx.IsInf(v) {
			return fmt.Errorf("-snr %g synthesizes non-finite sample %d = %v", snr, i, v)
		}
	}

	h := trace.Header{Params: sc.Params, PayloadLen: payloadLen}
	for _, p := range payloads {
		h.Users = append(h.Users, fmt.Sprintf("%x", p))
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := trace.WriteFramed(f, h, samples); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s: %d users at %.1f dB, %d IQ samples, %s\n",
		out, users, snr, len(samples), sc.Params.SF)
	return nil
}
