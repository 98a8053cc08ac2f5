// Command densenetwork reproduces the paper's density story (Fig. 8d-f) on
// a small budget: a cell of up to 10 concurrently transmitting sensors is
// simulated under the three MACs — standard LoRaWAN unslotted ALOHA, an
// oracle TDMA scheduler, and Choir — and the throughput, latency and
// battery (transmissions per delivered packet) trends are printed.
//
// Pass -calibrate to drive the Choir receiver with success probabilities
// measured by Monte-Carlo runs of the real IQ-level decoder instead of the
// closed-form model (slower, more faithful).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"choir"
)

func main() {
	calibrate := flag.Bool("calibrate", false, "calibrate the Choir PHY with IQ-level Monte-Carlo")
	slots := flag.Int("slots", 3000, "simulated slots per MAC run")
	flag.Parse()

	cfg := choir.DefaultFig8()
	cfg.Slots = *slots
	if !*calibrate {
		cfg.Calibration.Trials = 0 // analytic success model
	} else {
		fmt.Println("calibrating against the IQ-level decoder (this runs the full DSP pipeline)...")
	}

	ctx := context.Background()
	for _, metric := range []choir.ExperimentMetric{choir.MetricThroughput, choir.MetricLatency, choir.MetricTxCount} {
		fig, err := choir.Fig8Users(ctx, cfg, metric)
		if err != nil {
			log.Fatal(err)
		}
		fig.Fprint(os.Stdout)
		fmt.Println()
	}

	head, err := choir.ComputeHeadline(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("headline @10 users: throughput %.2fx vs ALOHA, %.2fx vs Oracle; latency %.2fx better; %.2fx fewer transmissions\n",
		head.ThroughputGainVsAloha, head.ThroughputGainVsOracle, head.LatencyReduction, head.TxReduction)
	fmt.Println("(paper: 29.02x / 6.84x throughput, 4.88x latency, 4.54x transmissions)")
}
