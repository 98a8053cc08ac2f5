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
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"choir"
	"choir/internal/obs"
	"choir/internal/sim"
	"choir/internal/trace"
)

func main() {
	users := flag.Int("users", 2, "number of colliding transmitters")
	snr := flag.Float64("snr", 15, "per-user receive SNR in dB")
	team := flag.Bool("team", false, "all users transmit the same payload (Sec. 7 team mode)")
	payloadLen := flag.Int("payload", 8, "payload length in bytes")
	seed := flag.Uint64("seed", 1, "synthesis seed")
	out := flag.String("out", "collision.iq", "output trace path")
	metrics := flag.Bool("metrics", false, "record metrics and dump a JSON snapshot at exit")
	metricsOut := flag.String("metrics-out", "", "metrics snapshot destination (default or \"-\": stderr)")
	debugAddr := flag.String("debug-addr", "", "serve expvar and pprof on this address (e.g. localhost:6060); implies metrics recording")
	flag.Parse()

	dumpMetrics, stopDebug, err := obs.StartCLI(*metrics, *metricsOut, *debugAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer stopDebug()
	defer func() {
		if err := dumpMetrics(); err != nil {
			log.Printf("metrics dump: %v", err)
		}
	}()

	if *users < 1 {
		log.Fatal("need at least one user")
	}
	snrs := make([]float64, *users)
	for i := range snrs {
		snrs[i] = *snr
	}
	sc := sim.Scenario{
		Params:     choir.DefaultPHY(),
		PayloadLen: *payloadLen,
		SNRsDB:     snrs,
		Identical:  *team,
		Seed:       *seed,
	}
	samples, payloads := sc.Synthesize()

	h := trace.Header{Params: sc.Params, PayloadLen: *payloadLen}
	for _, p := range payloads {
		h.Users = append(h.Users, fmt.Sprintf("%x", p))
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := trace.WriteFramed(f, h, samples); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s: %d users at %.1f dB, %d IQ samples, %s\n",
		*out, *users, *snr, len(samples), sc.Params.SF)
}
