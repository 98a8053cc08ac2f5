// Package mac holds the medium-access vocabulary of an LP-WAN cell: the
// three schemes of the paper's evaluation (LoRaWAN ALOHA with binary
// exponential backoff, the oracle TDMA upper bound, and the Choir base
// station that decodes concurrent transmissions), the slot-level receiver
// models that say how many of k colliding packets decode, and the
// beacon-round team scheduler of Sec. 7.1.
//
// It runs nothing itself. The one simulator that executes these schemes —
// arrivals, backoff, the unslotted veto, queue drops, latency — is
// internal/sim/engine, from a two-client cell to a million-node city.
package mac

import (
	"errors"
	"fmt"
)

// Group is one contention group as a receiver sees it: the transmissions
// one gateway hears on one spreading factor in one slot.
type Group struct {
	// SFIdx is the group's spreading factor index (0 = SF7).
	SFIdx int
	// K counts every transmission on the group's (gateway, SF) channel:
	// the home ones plus the same-SF foreign ones, which the receiver
	// cannot tell apart from home contention. K >= 1.
	K int
	// Foreign is the gateway's foreign transmitter count by SF index in
	// this slot (Foreign[SFIdx] is already in K), or nil when no foreign
	// network is configured. It must not be written to.
	Foreign *[6]int32
}

// SlotSuccess is the order-free slot-level PHY abstraction the engine
// drives: the probability that any one transmission of a contention group
// decodes. The engine draws one Bernoulli(Prob(g)) per home transmitter
// from a hash of (seed, node, slot), so the outcome does not depend on
// which driver evaluates it.
type SlotSuccess interface {
	// Prob returns the probability that an individual transmission of
	// group g decodes.
	Prob(g Group) float64
	// Capacity is the maximum number of concurrent packets the receiver can
	// ever decode in one slot (also what the oracle scheduler grants per
	// slot); 0 means one.
	Capacity() int
}

// AlohaReceiver is the standard LoRaWAN base station: a slot delivers a
// packet only when exactly one node transmits (collisions destroy all
// packets on the same spreading factor).
func AlohaReceiver() ModelReceiver {
	return ModelReceiver{Success: []float64{1, 0}, MaxConcurrent: 1}
}

// ModelReceiver decodes concurrent packets according to a per-count success
// probability table — typically calibrated against the real Choir decoder
// (see package sim). Success[k-1] is the probability that any given one of k
// concurrent packets decodes; indexes beyond the table use the last entry.
type ModelReceiver struct {
	// Success[k-1] is the per-packet decode probability with k concurrent
	// transmitters. Must be non-empty.
	Success []float64
	// MaxConcurrent caps decodable packets per slot (0 = len(Success)).
	MaxConcurrent int
}

// Prob implements SlotSuccess: the table entry at the group's count.
func (m ModelReceiver) Prob(g Group) float64 { return m.PerTxProb(g.K) }

// PerTxProb is the calibrated per-packet decode probability with k
// concurrent transmitters; indexes beyond the table use the last entry.
func (m ModelReceiver) PerTxProb(k int) float64 {
	if len(m.Success) == 0 {
		panic("mac: ModelReceiver with empty success table")
	}
	idx := k - 1
	if idx >= len(m.Success) {
		idx = len(m.Success) - 1
	}
	return m.Success[idx]
}

// Check reports whether the table is one a receiver can run on: not
// empty, and every entry a probability in [0, 1].
func (m ModelReceiver) Check() error {
	if len(m.Success) == 0 {
		return errors.New("mac: ModelReceiver with empty success table")
	}
	for k, p := range m.Success {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("mac: ModelReceiver Success[%d] = %g is not a probability in [0, 1]", k, p)
		}
	}
	return nil
}

// Capacity implements SlotSuccess.
func (m ModelReceiver) Capacity() int {
	if m.MaxConcurrent > 0 {
		return m.MaxConcurrent
	}
	return len(m.Success)
}

// Scheme selects the MAC protocol under simulation.
type Scheme int

// The three MAC schemes of the paper's evaluation (Sec. 8 "Baseline").
const (
	// SchemeAloha is ALOHA with binary exponential backoff — the standard
	// LoRaWAN MAC.
	SchemeAloha Scheme = iota
	// SchemeOracle is a genie TDMA scheduler that never collides and packs
	// the receiver's full capacity each slot.
	SchemeOracle
	// SchemeChoir lets every backlogged node transmit each slot and relies
	// on the receiver to disentangle the collision.
	SchemeChoir
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeAloha:
		return "ALOHA"
	case SchemeOracle:
		return "Oracle"
	case SchemeChoir:
		return "Choir"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}
