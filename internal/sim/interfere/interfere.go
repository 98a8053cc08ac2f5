// Package interfere is the multi-network interference scenario suite: the
// capture-effect receiver model and the goodput-vs-density sweep that
// compares Choir's collision decoding against classic ADR policies when the
// city is shared with co-channel foreign LP-WANs. It composes the pieces
// the engine already exposes — engine.ForeignConfig populations,
// engine.ADRPolicy rate adaptation, and the mac.Group every receiver call
// carries — into LoRaSim's experiment 0–5 matrix (SNIPPETS.md §3) under
// interference.
package interfere

import (
	"math"

	"choir/internal/mac"
	"choir/internal/sim"
)

// DefaultSIR is the per-SF co-channel rejection matrix in dB:
// DefaultSIR[i][j] is the signal-to-interference ratio a home transmission
// at SF7+i needs over an interferer at SF7+j to survive. The off-diagonal
// entries follow the measured imperfect-orthogonality thresholds of Croce
// et al. (higher home SFs tolerate deeper interference; same-SF — the
// diagonal — is handled by contention counting, not this matrix).
var DefaultSIR = [6][6]float64{
	{6, -16, -18, -19, -19, -20},
	{-24, 6, -20, -22, -22, -22},
	{-27, -27, 6, -23, -25, -25},
	{-30, -30, -30, 6, -26, -28},
	{-33, -33, -33, -33, 6, -29},
	{-36, -36, -36, -36, -36, 6},
}

// CaptureModel wraps a base mac.ModelReceiver table with the capture
// effect and per-SF imperfect orthogonality. Per transmission of a group
// of K (home plus same-SF foreign, which the receiver cannot tell apart):
//
//   - With probability capQ^(K-1) the frame is stronger than every
//     contender by MarginDB and captures the channel, decoding as if alone;
//     otherwise it faces the full collision. Power differences between two
//     independently-shadowed links are N(0, 2σ²) in dB, so the pairwise
//     capture probability is capQ = Q(MarginDB / (σ√2)).
//   - Each cross-SF foreign frame at SF j independently destroys the frame
//     unless the home link clears the SIR threshold: survival
//     Q(SIR[i][j] / (σ√2)) per interferer.
//
// MarginDB <= 0 turns capture and cross-SF leakage off entirely: the model
// is then bit-identical to its base receiver — the transparency the
// equivalence tests pin. Construct with New; the zero value is not usable.
//
// The model's two bases never change after construction and their
// exponents are transmitter counts, so capPow and survPow hold the powers
// below powTable as math.Pow returned them: Prob reads what it
// would otherwise compute per group per slot, bit for bit, and calls
// math.Pow only for a count beyond the table.
type CaptureModel struct {
	base     mac.ModelReceiver
	marginDB float64
	capQ     float64
	surv     [6][6]float64
	capPow   [powTable]float64       // capPow[n] = capQ^n
	survPow  [6][6][powTable]float64 // survPow[i][j][n] = surv[i][j]^n
}

// powTable is how many powers of each base the model keeps. A city's
// contention and foreign counts are single digits; 64 leaves the table at
// 19 KB a model and math.Pow to the pathological slot.
const powTable = 64

// New builds a CaptureModel over base with the given capture margin, the
// urban shadowing spread (sim.UrbanChannel().ShadowSigmaDB), and the
// DefaultSIR rejection matrix.
func New(base mac.ModelReceiver, marginDB float64) *CaptureModel {
	cm := &CaptureModel{base: base, marginDB: marginDB}
	if marginDB <= 0 {
		return cm
	}
	s := sim.UrbanChannel().ShadowSigmaDB * math.Sqrt2
	cm.capQ = qfunc(marginDB / s)
	for n := range cm.capPow {
		cm.capPow[n] = math.Pow(cm.capQ, float64(n))
	}
	for i := range cm.surv {
		for j := range cm.surv[i] {
			cm.surv[i][j] = qfunc(DefaultSIR[i][j] / s)
			for n := range cm.survPow[i][j] {
				cm.survPow[i][j][n] = math.Pow(cm.surv[i][j], float64(n))
			}
		}
	}
	return cm
}

// powOf returns base^n: table[n] where the table reaches, math.Pow beyond.
func powOf(table *[powTable]float64, base float64, n int) float64 {
	if uint(n) < powTable {
		return table[n]
	}
	return math.Pow(base, float64(n))
}

// qfunc is the Gaussian tail probability Q(x) = P(N(0,1) > x).
func qfunc(x float64) float64 { return 0.5 * math.Erfc(x/math.Sqrt2) }

// Capacity implements mac.SlotSuccess. Foreign frames are never decoded
// for us, so they do not consume the base receiver's per-slot decode
// capacity — they only degrade the per-transmission probability.
func (cm *CaptureModel) Capacity() int { return cm.base.Capacity() }

// Check reports whether the base table is one the model can run on
// (mac.ModelReceiver.Check).
func (cm *CaptureModel) Check() error { return cm.base.Check() }

// Prob implements mac.SlotSuccess.
func (cm *CaptureModel) Prob(g mac.Group) float64 {
	p := cm.base.PerTxProb(g.K)
	if cm.marginDB <= 0 {
		return p
	}
	if g.K > 1 {
		if p1 := cm.base.PerTxProb(1); p1 > p {
			p += (p1 - p) * powOf(&cm.capPow, cm.capQ, g.K-1)
		}
	}
	if g.Foreign == nil {
		return p
	}
	for j, n := range g.Foreign {
		if j == g.SFIdx || n == 0 {
			continue
		}
		p *= powOf(&cm.survPow[g.SFIdx][j], cm.surv[g.SFIdx][j], int(n))
	}
	return p
}

// PerTxProbForeign is Prob for k home transmissions at SF index sfIdx
// beside the given foreign counts.
func (cm *CaptureModel) PerTxProbForeign(k, sfIdx int, foreign *[6]int32) float64 {
	return cm.Prob(mac.Group{SFIdx: sfIdx, K: k + int(foreign[sfIdx]), Foreign: foreign})
}
