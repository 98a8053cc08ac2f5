// Package mac simulates the medium-access layer of an LP-WAN cell with a
// slotted discrete-event engine: the standard LoRaWAN slotted-ALOHA MAC with
// binary exponential backoff, the oracle TDMA scheduler the paper uses as an
// upper-bound baseline, and the Choir base station that decodes multiple
// concurrent transmissions per slot.
//
// The PHY is abstracted behind the Receiver interface so the same engine can
// run against a closed-form success model (fast, for wide sweeps) or against
// the real IQ-level Choir decoder (package sim wires that up).
package mac

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"choir/internal/ctxutil"
)

// NodeID identifies a client within a simulation.
type NodeID int

// Receiver decides which of the concurrently transmitting nodes a base
// station decodes in one slot. Implementations model the PHY.
type Receiver interface {
	// Decode returns the subset of transmitting nodes whose packets were
	// received successfully this slot.
	Decode(transmitting []NodeID, rng *rand.Rand) []NodeID
	// Capacity is the maximum number of concurrent packets the receiver can
	// ever decode in one slot (used by the oracle scheduler); 0 means one.
	Capacity() int
}

// SlotSuccess is the order-free slot-level PHY abstraction shared by this
// package's slot loop and the city-scale engine (internal/sim/engine): the
// probability that any one of k concurrent same-channel transmissions
// decodes. Decode draws one Bernoulli(PerTxProb(k)) per transmitter, so a
// driver that makes the same per-transmitter draws from any RNG layout
// reproduces the same model — that property is what lets the event-driven
// engine shard nodes while staying bit-identical to a serial slot walk.
// Both built-in receivers implement it.
type SlotSuccess interface {
	// PerTxProb returns the probability that an individual transmission
	// among k concurrent ones decodes. k >= 1.
	PerTxProb(k int) float64
	// Capacity is the maximum number of concurrent packets decodable per
	// slot, as in Receiver.
	Capacity() int
}

// Compile-time proof that both built-in receivers expose the shared
// slot-success abstraction the city engine drives.
var (
	_ SlotSuccess = AlohaReceiver{}
	_ SlotSuccess = ModelReceiver{}
)

// AlohaReceiver is the standard LoRaWAN base station: a slot delivers a
// packet only when exactly one node transmits (collisions destroy all
// packets on the same spreading factor).
type AlohaReceiver struct{}

// Decode implements Receiver.
func (AlohaReceiver) Decode(tx []NodeID, _ *rand.Rand) []NodeID {
	if len(tx) == 1 {
		return tx
	}
	return nil
}

// PerTxProb implements SlotSuccess: a lone transmission always decodes, any
// collision destroys all packets.
func (AlohaReceiver) PerTxProb(k int) float64 {
	if k == 1 {
		return 1
	}
	return 0
}

// Capacity implements Receiver.
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

// Decode implements Receiver.
func (m ModelReceiver) Decode(tx []NodeID, rng *rand.Rand) []NodeID {
	return m.DecodeAppend(nil, tx, rng)
}

// DecodeAppend implements appendReceiver: it is Decode appending the decoded
// nodes to dst instead of a fresh slice, so the slot loop can recycle one
// buffer across millions of slots. The RNG draw sequence and results are
// identical to Decode's.
func (m ModelReceiver) DecodeAppend(dst []NodeID, tx []NodeID, rng *rand.Rand) []NodeID {
	if len(m.Success) == 0 {
		panic("mac: ModelReceiver with empty success table")
	}
	if len(tx) == 0 {
		return dst
	}
	p := m.PerTxProb(len(tx))
	base := len(dst)
	for _, id := range tx {
		if rng.Float64() < p {
			dst = append(dst, id)
		}
	}
	maxC := m.MaxConcurrent
	if maxC == 0 {
		maxC = len(m.Success)
	}
	if len(dst)-base > maxC {
		dst = dst[:base+maxC]
	}
	return dst
}

// PerTxProb implements SlotSuccess: the calibrated per-packet decode
// probability with k concurrent transmitters; indexes beyond the table use
// the last entry, exactly as Decode always has.
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

// Capacity implements Receiver.
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
	// SchemeAloha is slotted ALOHA with binary exponential backoff — the
	// standard LoRaWAN MAC.
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

// Config parameterizes a cell simulation.
type Config struct {
	Scheme Scheme
	// Nodes is the number of clients.
	Nodes int
	// Slots is the simulated duration in slots (one slot = one frame
	// airtime plus guard time).
	Slots int
	// ArrivalPerSlot is the per-node probability of generating a new packet
	// each slot. Set to 1 for saturated traffic.
	ArrivalPerSlot float64
	// QueueCap bounds each node's packet queue; arrivals beyond it are
	// dropped (counted). 0 means 64.
	QueueCap int
	// MaxBackoffExp caps the binary exponential backoff window at
	// 2^MaxBackoffExp slots (ALOHA only; default 8).
	MaxBackoffExp int
	// Unslotted models pure (unslotted) ALOHA, the LoRaWAN default: each
	// transmission starts at a random phase within its slot, so it is also
	// vulnerable to transmissions in the adjacent slots. A delivery that
	// survives same-slot collision is additionally vetoed with probability
	// 1-(1/2)^(t_prev+t_next) where t_prev/t_next are the neighbouring
	// slots' transmission counts (each neighbour overlaps with probability
	// 1/2). Only meaningful for SchemeAloha.
	Unslotted bool
	// SlotSeconds is the wall-clock duration of a slot, used to convert
	// latency to seconds and throughput to bits/s.
	SlotSeconds float64
	// PacketBits is the payload size carried per packet.
	PacketBits int
	// Seed seeds the simulation.
	Seed uint64
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.Scheme < SchemeAloha || c.Scheme > SchemeChoir:
		return fmt.Errorf("mac: unknown scheme %d", int(c.Scheme))
	case c.Nodes <= 0:
		return fmt.Errorf("mac: Nodes %d <= 0", c.Nodes)
	case c.Slots <= 0:
		return fmt.Errorf("mac: Slots %d <= 0", c.Slots)
	case c.ArrivalPerSlot < 0 || c.ArrivalPerSlot > 1 || math.IsNaN(c.ArrivalPerSlot):
		return fmt.Errorf("mac: ArrivalPerSlot %g outside [0,1]", c.ArrivalPerSlot)
	case c.QueueCap < 0:
		return fmt.Errorf("mac: QueueCap %d < 0", c.QueueCap)
	case c.MaxBackoffExp < 0:
		return fmt.Errorf("mac: MaxBackoffExp %d < 0", c.MaxBackoffExp)
	case c.SlotSeconds <= 0:
		return fmt.Errorf("mac: SlotSeconds %g <= 0", c.SlotSeconds)
	case c.PacketBits <= 0:
		return fmt.Errorf("mac: PacketBits %d <= 0", c.PacketBits)
	}
	return nil
}

// Metrics aggregates an experiment run, mirroring the paper's three
// headline measurements (Fig. 8).
type Metrics struct {
	// Delivered counts packets decoded by the base station.
	Delivered int
	// Transmissions counts every packet transmission attempt.
	Transmissions int
	// Dropped counts arrivals lost to full queues.
	Dropped int
	// TotalLatencySlots sums, over delivered packets, slots from arrival to
	// delivery.
	TotalLatencySlots int
	// Slots echoes the simulated duration.
	Slots int
	cfg   Config
}

// ThroughputBps returns delivered payload bits per second across the cell.
func (m Metrics) ThroughputBps() float64 {
	return float64(m.Delivered*m.cfg.PacketBits) / (float64(m.Slots) * m.cfg.SlotSeconds)
}

// MeanLatency returns the mean arrival-to-delivery latency in seconds.
func (m Metrics) MeanLatency() float64 {
	if m.Delivered == 0 {
		return 0
	}
	return float64(m.TotalLatencySlots) / float64(m.Delivered) * m.cfg.SlotSeconds
}

// TxPerDelivered returns the mean number of transmissions spent per
// delivered packet — the paper's battery-drain proxy.
func (m Metrics) TxPerDelivered() float64 {
	if m.Delivered == 0 {
		if m.Transmissions == 0 {
			return 0
		}
		return float64(m.Transmissions)
	}
	return float64(m.Transmissions) / float64(m.Delivered)
}

// node is one client's MAC state: the shared head-indexed backlog Queue
// (see queue.go — the city-scale engine runs the identical structure) plus
// the ALOHA backoff machine.
type node struct {
	queue      Queue
	backoff    int // slots until allowed to transmit (ALOHA)
	backoffExp int
	attempts   int
}

// appendReceiver is an optional Receiver extension: DecodeAppend appends the
// decoded subset to dst, letting Run reuse one buffer across slots. The
// RNG draws and decoded set must match Decode's exactly.
type appendReceiver interface {
	DecodeAppend(dst []NodeID, tx []NodeID, rng *rand.Rand) []NodeID
}

// ctxCheckInterval is how many simulated slots Run advances between
// context polls — frequent enough that cancellation lands within
// milliseconds, rare enough that the poll never shows up in profiles.
const ctxCheckInterval = 256

// Run simulates the cell and returns aggregate metrics. The slot loop polls
// ctx every ctxCheckInterval slots and abandons the simulation (returning
// the context's error, no partial metrics) once it fires.
func Run(ctx context.Context, cfg Config, rx Receiver) (*Metrics, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ctx = ctxutil.Background(ctx)
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 64
	}
	if cfg.MaxBackoffExp == 0 {
		cfg.MaxBackoffExp = 8
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x5EED))
	nodes := make([]node, cfg.Nodes)
	m := &Metrics{Slots: cfg.Slots, cfg: cfg}
	prevTxCount := 0

	// Per-slot working storage, hoisted out of the slot loop: the transmitter
	// list, the decoded list (when the receiver supports DecodeAppend) and
	// the delivered set — a bool-per-node table instead of a per-slot map,
	// cleared at the end of each slot by walking decoded (O(delivered), not
	// O(nodes)). The RNG draw sequence is untouched, so metrics are identical
	// to the allocating loop's.
	txBuf := make([]NodeID, 0, cfg.Nodes)
	decodedBuf := make([]NodeID, 0, cfg.Nodes)
	ok := make([]bool, cfg.Nodes)
	apRx, hasAppend := rx.(appendReceiver)

	for slot := 0; slot < cfg.Slots; slot++ {
		if slot%ctxCheckInterval == 0 && ctx.Err() != nil {
			return nil, fmt.Errorf("mac: run canceled at slot %d/%d: %w", slot, cfg.Slots, ctx.Err())
		}
		// Arrivals.
		for i := range nodes {
			if cfg.ArrivalPerSlot >= 1 || rng.Float64() < cfg.ArrivalPerSlot {
				if nodes[i].queue.Len() < cfg.QueueCap {
					nodes[i].queue.Push(Packet{ArrivalSlot: slot})
				} else {
					m.Dropped++
				}
			}
		}

		// Choose transmitters.
		tx := txBuf[:0]
		switch cfg.Scheme {
		case SchemeAloha:
			for i := range nodes {
				n := &nodes[i]
				if n.queue.Len() == 0 {
					continue
				}
				if n.backoff > 0 {
					n.backoff--
					continue
				}
				tx = append(tx, NodeID(i))
			}
		case SchemeOracle:
			// Perfect scheduler: pick up to Capacity backlogged nodes
			// round-robin, never colliding beyond what the PHY resolves.
			capacity := rx.Capacity()
			if capacity < 1 {
				capacity = 1
			}
			start := slot % cfg.Nodes
			for k := 0; k < cfg.Nodes && len(tx) < capacity; k++ {
				i := (start + k) % cfg.Nodes
				if nodes[i].queue.Len() > 0 {
					tx = append(tx, NodeID(i))
				}
			}
		case SchemeChoir:
			// Beacon-coordinated: every backlogged node answers the beacon.
			for i := range nodes {
				if nodes[i].queue.Len() > 0 {
					tx = append(tx, NodeID(i))
				}
			}
		default:
			return nil, fmt.Errorf("mac: unknown scheme %v", cfg.Scheme)
		}

		m.Transmissions += len(tx)
		var decoded []NodeID
		if hasAppend {
			decoded = apRx.DecodeAppend(decodedBuf[:0], tx, rng)
		} else {
			decoded = rx.Decode(tx, rng)
		}
		for _, id := range decoded {
			if cfg.Unslotted && cfg.Scheme == SchemeAloha {
				// Pure ALOHA: neighbours in adjacent slots each overlap
				// with probability 1/2. Approximate the (unknown) next
				// slot by the previous one — symmetric in steady state.
				veto := false
				for k := 0; k < 2*prevTxCount; k++ {
					if rng.Float64() < 0.5 {
						veto = true
						break
					}
				}
				if veto {
					continue
				}
			}
			ok[id] = true
		}
		prevTxCount = len(tx)

		for _, id := range tx {
			n := &nodes[id]
			if ok[id] {
				p := n.queue.Pop()
				m.Delivered++
				m.TotalLatencySlots += slot - p.ArrivalSlot + 1
				n.backoffExp = 0
				n.backoff = 0
				n.attempts = 0
			} else if cfg.Scheme == SchemeAloha {
				// Collision (or loss): binary exponential backoff.
				if n.backoffExp < cfg.MaxBackoffExp {
					n.backoffExp++
				}
				n.backoff = rng.IntN(1 << n.backoffExp)
				n.attempts++
			}
		}
		for _, id := range decoded {
			ok[id] = false
		}
	}
	mRuns.Inc()
	mSlots.Add(int64(m.Slots))
	mDelivered.Add(int64(m.Delivered))
	mDropped.Add(int64(m.Dropped))
	mTransmissions.Add(int64(m.Transmissions))
	return m, nil
}
