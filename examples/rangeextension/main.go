// Command rangeextension demonstrates Sec. 7 of the paper end to end: a
// team of co-located sensors, each individually too weak to even be
// DETECTED by the base station, transmits the same reading concurrently
// after a beacon. Coherent accumulation of the preamble across windows
// finds the team, and the maximum-likelihood joint decoder recovers the
// payload from energy pooled across all members. The program then prints
// the resulting range-versus-team-size curve (Fig. 9b).
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"choir"
)

func main() {
	phy := choir.DefaultPHY()
	dec, err := choir.NewDecoder(choir.DefaultDecoderConfig(phy))
	if err != nil {
		log.Fatal(err)
	}

	// Each member sits 5 dB below the single-user preamble-detection point.
	const perMemberSNR = -14.0
	payloadLen := 8

	for _, team := range []int{1, 4, 12} {
		snrs := make([]float64, team)
		for i := range snrs {
			snrs[i] = perMemberSNR
		}
		sc := choir.Scenario{
			Params:     phy,
			PayloadLen: payloadLen,
			SNRsDB:     snrs,
			Identical:  true, // co-located sensors report the same reading
			Seed:       99,
		}
		iq, payloads := sc.Synthesize()

		res, err := dec.DecodeTeam(context.Background(), iq, payloadLen)
		switch {
		case err != nil:
			fmt.Printf("team of %2d @ %.0f dB: not detected (%v)\n", team, perMemberSNR, err)
		case res.Err != nil:
			fmt.Printf("team of %2d @ %.0f dB: detected %d members, payload failed (%v)\n",
				team, perMemberSNR, len(res.Offsets), res.Err)
		default:
			ok := string(res.Payload) == string(payloads[0])
			fmt.Printf("team of %2d @ %.0f dB: detected %d members, payload %q correct=%v\n",
				team, perMemberSNR, len(res.Offsets), res.Payload, ok)
		}
	}

	fmt.Println()
	fig := choir.Fig9Range(30)
	fig.Fprint(os.Stdout)
	s := fig.Series[0]
	fmt.Printf("range gain at 30-node teams: %.2fx (paper: 2.65x)\n", s.Y[len(s.Y)-1]/s.Y[0])
}
