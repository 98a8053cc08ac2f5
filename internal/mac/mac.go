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

import "fmt"

// SlotSuccess is the order-free slot-level PHY abstraction the engine
// drives: the probability that any one of k concurrent same-channel
// transmissions decodes. The engine draws one Bernoulli(PerTxProb(k)) per
// transmitter from a hash of (seed, node, slot), so the outcome does not
// depend on which driver evaluates it.
type SlotSuccess interface {
	// PerTxProb returns the probability that an individual transmission
	// among k concurrent ones decodes. k >= 1.
	PerTxProb(k int) float64
	// Capacity is the maximum number of concurrent packets the receiver can
	// ever decode in one slot (also what the oracle scheduler grants per
	// slot); 0 means one.
	Capacity() int
}

// Compile-time proof that both built-in receivers are slot-success models.
var (
	_ SlotSuccess = AlohaReceiver{}
	_ SlotSuccess = ModelReceiver{}
)

// AlohaReceiver is the standard LoRaWAN base station: a slot delivers a
// packet only when exactly one node transmits (collisions destroy all
// packets on the same spreading factor).
type AlohaReceiver struct{}

// PerTxProb implements SlotSuccess: a lone transmission always decodes, any
// collision destroys all packets.
func (AlohaReceiver) PerTxProb(k int) float64 {
	if k == 1 {
		return 1
	}
	return 0
}

// Capacity implements SlotSuccess.
func (AlohaReceiver) Capacity() int { return 1 }

// ModelReceiver decodes concurrent packets according to a per-count success
// probability table — typically calibrated against the real Choir decoder
// (see package sim). Success[k] is the probability that any given one of k
// concurrent packets decodes; indexes beyond the table use the last entry.
type ModelReceiver struct {
	// Success[k-1] is the per-packet decode probability with k concurrent
	// transmitters. Must be non-empty.
	Success []float64
	// MaxConcurrent caps decodable packets per slot (0 = len(Success)).
	MaxConcurrent int
}

// PerTxProb implements SlotSuccess: the calibrated per-packet decode
// probability with k concurrent transmitters; indexes beyond the table use
// the last entry.
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
