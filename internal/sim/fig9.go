package sim

import (
	"math"

	"choir/internal/channel"
	"choir/internal/lora"
)

// TeamGainDB returns the receive-power pooling of a team of size u whose
// members transmit identical, beacon-synchronized packets: powers add
// across members (Sec. 7.1), so the effective SNR grows by 10·log10(u).
func TeamGainDB(u int) float64 {
	if u < 1 {
		return 0
	}
	return 10 * math.Log10(float64(u))
}

// Fig9Throughput reproduces Fig. 9(a): the data rate achieved by teams of
// transmitters that are individually beyond decode range, as the team grows.
// Each member sits at perMemberSNR dB (below the minimum-rate threshold);
// the pooled SNR buys a data rate through standard rate adaptation. The
// curve is validated at IQ level by DecodeTeam in the tests.
func Fig9Throughput(perMemberSNR float64, maxTeam int) *Figure {
	fig := &Figure{
		ID:     "Fig 9(a)",
		Title:  "team throughput vs team size (members individually out of range)",
		XLabel: "# transmitters",
		YLabel: "throughput (bits/s)",
	}
	var s Series
	s.Name = "Choir team"
	for u := 1; u <= maxTeam; u++ {
		eff := perMemberSNR + TeamGainDB(u)
		p, ok := RateForSNR(eff)
		rate := 0.0
		if ok {
			rate = p.BitRate()
		}
		s.X = append(s.X, float64(u))
		s.Y = append(s.Y, rate)
	}
	fig.Series = []Series{s}
	return fig
}

// Fig9Range reproduces Fig. 9(b): the maximum distance at which the closest
// member of a team can sit and still reach the base station, versus team
// size. The single-client limit is the paper's ~1 km urban range; pooling
// extends it by u^(1/pathloss-exponent).
func Fig9Range(maxTeam int) *Figure {
	pl := UrbanChannel()
	rx := ReceiverConfig()
	thr := DemodThresholdDB(lora.SF12)
	fig := &Figure{
		ID:     "Fig 9(b)",
		Title:  "maximum distance vs team size",
		XLabel: "# transmitters",
		YLabel: "maximum distance (m)",
	}
	var s Series
	s.Name = "Choir team"
	for u := 1; u <= maxTeam; u++ {
		d := channel.RangeForSNR(thr-TeamGainDB(u), ClientPowerDBm, pl, rx)
		s.X = append(s.X, float64(u))
		s.Y = append(s.Y, d)
	}
	fig.Series = []Series{s}
	return fig
}
