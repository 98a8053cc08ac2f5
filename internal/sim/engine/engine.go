// Package engine is the repository's one MAC simulator. It runs the three
// schemes of internal/mac — ALOHA with binary exponential backoff, the
// oracle TDMA genie, Choir — over slot-level receiver models, and it is the
// only place where arrivals, backoff, the unslotted veto, the genie's
// grants, queue drops and latency are defined. The same model serves the
// paper's two-to-ten-client cells (figures.go: one gateway, one building)
// and a multi-gateway urban grid of millions of nodes: the event driver
// keeps one calendar of node wake events, takes it a slot at a time and
// only touches nodes with work, so a sparse-traffic million-node city
// costs O(events), not O(nodes × slots). What a run keeps is flat,
// pointer-free arrays — 16 bytes of state per node, the calendar's chunks
// of scheduled IDs, and per band a pool of 16-byte backlog records for the
// nodes that hold packets and one of 8-byte queued packets — so an event
// costs about one cache miss and no allocation, an arrival the horizon
// prunes a hash and a compare, and calendar reads and writes both go a slot
// at a time. Each gateway's cell is its own collision domain, so a run
// splits the city into bands of gateway rows and runs them side by side on
// one exec.Fan fan-out, joining their Metrics when the horizon ends
// (run).
//
// The load-bearing property is determinism by construction: every random
// decision — arrival times, placement, shadowing, per-transmission decode
// success, unslotted-ALOHA overlap, backoff — is a pure function of the run
// seed and the decision's logical coordinates (node ID, slot, draw index)
// via exec.DeriveSeed. No decision reads a shared RNG stream, so the
// driver (slot walk vs event queue) and the order runs are fanned out in
// cannot reorder draws. Both drivers run one slot rule, band.step, and
// differ only in how they find a slot's wakes: the calendar, or a scan of
// every node. Two references hold that to the model: the slot driver is
// the reference for the calendar's wake order, and modelRun, a plain
// per-slot loop in the tests that shares none of this package's code, is
// the reference for the rule. The equivalence tests require all three to
// return bit-identical Metrics, which is what lets the fast driver claim to
// be the same model rather than a lookalike.
package engine

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"choir/internal/channel"
	"choir/internal/ctxutil"
	"choir/internal/exec"
	"choir/internal/lora"
	"choir/internal/mac"
	"choir/internal/sim"
)

// Driver selects how the simulation advances time.
type Driver int

const (
	// DriverEvent is the event-queue driver: one priority queue of node
	// wakes, so only slots and nodes with work are touched. The zero value,
	// and the only driver the program runs.
	DriverEvent Driver = iota
	// DriverSlot is the serial reference for the calendar: it walks every
	// slot, scans every node for a wake due in it and runs the same slot
	// rule as the event driver. Nothing in the program selects it; it stays
	// outside the test files only because benchmark/ runs the same check
	// through Run (ROADMAP item 9).
	DriverSlot
)

// ADRPolicy selects how a node picks its spreading factor and transmit
// power, mirroring LoRaSim's experiment matrix (experiments 0–5): real
// urban deployments differ less in their PHY than in how aggressively each
// node adapts its rate, and the interference sweep compares exactly that.
type ADRPolicy int

const (
	// ADRFastestSNR picks the fastest SF whose demodulation threshold the
	// node's measured (shadowed) SNR clears — LoRaWAN rate adaptation with
	// perfect link measurement, and this engine's original behavior
	// (LoRaSim experiments 2/4). The zero value, so existing configs are
	// unchanged.
	ADRFastestSNR ADRPolicy = iota
	// ADRFixedSF12 pins every node at the slowest, most robust rate
	// (LoRaSim experiment 0): maximum range, worst airtime, and every node
	// in one collision group per gateway.
	ADRFixedSF12
	// ADRDistance picks the SF from the node's distance alone — the median
	// path loss with no shadowing term (LoRaSim experiment 3). Shadowed
	// nodes overshoot: a node whose real SNR falls below its
	// distance-chosen SF's threshold is unreachable, which is exactly the
	// failure mode that separates experiments 3 and 4.
	ADRDistance
	// ADRTxPower is ADRDistance plus transmit-power minimization (LoRaSim
	// experiment 5): the node keeps the distance-chosen SF but transmits at
	// the lowest power in TxPowersDBm whose median SNR still clears the
	// threshold, trading link margin for energy.
	ADRTxPower

	numADRPolicies
)

// String implements fmt.Stringer.
func (p ADRPolicy) String() string {
	switch p {
	case ADRFastestSNR:
		return "snr"
	case ADRFixedSF12:
		return "sf12"
	case ADRDistance:
		return "distance"
	case ADRTxPower:
		return "power"
	default:
		return fmt.Sprintf("ADRPolicy(%d)", int(p))
	}
}

// ADRPolicies returns every policy, in declaration order.
func ADRPolicies() []ADRPolicy {
	out := make([]ADRPolicy, numADRPolicies)
	for i := range out {
		out[i] = ADRPolicy(i)
	}
	return out
}

// TxPowersDBm is the candidate transmit-power ladder ADRTxPower chooses
// from (every other policy transmits at the top rung, the paper's 14 dBm
// client power). Indexes into this array are the pwr field of nodeState and
// the second axis of the energy table.
var TxPowersDBm = [5]float64{2, 5, 8, 11, 14}

// defaultPwrIdx is the full-power rung every non-power-optimizing policy
// uses.
const defaultPwrIdx = uint8(len(TxPowersDBm) - 1)

// ForeignConfig describes one co-channel foreign LP-WAN sharing the city:
// its own node population, traffic process, and rate-adaptation policy.
// Foreign nodes are placed uniformly over the same city square, adapt
// against the same gateway grid (co-located deployments, LoRaSim's
// basedist=0 multi-network setup), and contribute interference — they are
// never decoded for us and keep no queues. Their slot-level transmitter
// counts are modeled as a Poisson offered load: each reachable foreign
// node contributes ArrivalPerSlot to its (gateway, SF) group's rate, and
// every contended slot draws the group count from that rate. The
// memorylessness is what lets both drivers evaluate foreign traffic lazily
// — a pure function of (seed, gateway, SF, slot) — without simulating
// foreign queues, so the O(home events) cost model survives.
type ForeignConfig struct {
	// Nodes is the foreign network's population.
	Nodes int
	// ArrivalPerSlot is each foreign node's per-slot transmission
	// probability (offered load, not queue-backed).
	ArrivalPerSlot float64
	// ADR is the foreign network's rate-adaptation policy, fixing each
	// foreign node's SF at init.
	ADR ADRPolicy
}

// Config parameterizes a city simulation.
type Config struct {
	// Scheme is the MAC under test. SchemeAloha backs off after a failed
	// transmission; SchemeChoir has every backlogged node answer every
	// beacon; SchemeOracle is the genie TDMA baseline — each slot the first
	// Receiver.Capacity() backlogged nodes of every (gateway, SF) group, in
	// round-robin order, transmit and the rest wait (grantOracle).
	Scheme mac.Scheme
	// Driver selects the time-advance strategy: DriverEvent, the zero
	// value, or the DriverSlot reference that the equivalence checks set.
	Driver Driver
	// Nodes is the number of clients, laid out on a jittered √N×√N grid
	// over the city square.
	Nodes int
	// Gateways is the number of base stations, on their own centered grid.
	// Each node attaches to the nearest gateway. Default 1, at most 65535:
	// a node's gateway is a uint16 in its record.
	Gateways int
	// Slots is the simulated horizon in slots, at most math.MaxInt32 (over
	// 80 years of SF12 slots): a node's wake slots and arrival count are
	// 32-bit in its record.
	Slots int
	// ArrivalPerSlot is each node's per-slot packet generation probability
	// (geometric inter-arrival). 0 disables traffic; 1 saturates.
	ArrivalPerSlot float64
	// QueueCap bounds each node's backlog; arrivals beyond it are dropped
	// (counted). 0 means 64; at most 65535, since a node's backlog length is
	// a uint16 in its record.
	QueueCap int
	// MaxBackoffExp caps ALOHA binary exponential backoff at
	// 2^MaxBackoffExp slots (default 8).
	MaxBackoffExp int
	// Unslotted models pure (unslotted) ALOHA, the LoRaWAN default: each
	// transmission starts at a random phase within its slot, so it is also
	// vulnerable to transmissions in the adjacent slots (see vetoed). Only
	// meaningful for SchemeAloha.
	Unslotted bool
	// SideM is the city square's side in meters. 0 derives a default that
	// gives every gateway a ~1.6 km cell (the paper's urban single-client
	// range is ~1 km).
	SideM float64
	// PayloadLen is the payload size in bytes, at most lora.MaxPayloadLen
	// (default 12), used for per-SF airtime accounting.
	PayloadLen int
	// SlotSeconds is the wall-clock slot length (default: SF12 airtime at
	// PayloadLen plus 10% guard, so every rate fits in a slot).
	SlotSeconds float64
	// Receiver is the per-(gateway, SF) slot-level PHY: each home
	// transmission of a contention group decodes independently with
	// probability Receiver.Prob(group), and at most Receiver.Capacity()
	// decode per group per slot. The group's count includes the same-SF
	// foreign transmissions, and its Foreign field carries the gateway's
	// per-SF foreign counts when foreign networks are configured (see
	// groupProb). The event driver's bands call it concurrently, so it
	// must be safe for concurrent use.
	Receiver mac.SlotSuccess
	// ADR selects the home network's rate-adaptation policy (default
	// ADRFastestSNR, the engine's original behavior).
	ADR ADRPolicy
	// Foreign lists the co-channel foreign networks interfering with this
	// one. Empty means the original single-network model, bit-identically.
	Foreign []ForeignConfig
	// Seed drives all randomness through exec.DeriveSeed.
	Seed uint64
	// Shards and Workers are accepted and ignored: a run's width is
	// exec.Fan's (run). Nothing reads them; they stay declared only
	// because benchmark/ (frozen outside benchmark PRs) still assigns them,
	// and go once it stops (ROADMAP item 9).
	Shards  int
	Workers int
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.Scheme < mac.SchemeAloha || c.Scheme > mac.SchemeChoir:
		return fmt.Errorf("engine: unknown scheme %d", int(c.Scheme))
	case c.Driver != DriverEvent && c.Driver != DriverSlot:
		return fmt.Errorf("engine: unknown driver %d", int(c.Driver))
	case c.Nodes <= 0:
		return fmt.Errorf("engine: Nodes %d <= 0", c.Nodes)
	case c.Nodes > math.MaxInt32:
		// Node IDs are int32 throughout the engine and its event queue.
		return fmt.Errorf("engine: Nodes %d exceeds the int32 node ID limit %d", c.Nodes, math.MaxInt32)
	case c.Gateways < 0:
		return fmt.Errorf("engine: Gateways %d < 0", c.Gateways)
	case c.Gateways > math.MaxUint16:
		return fmt.Errorf("engine: Gateways %d exceeds the uint16 gateway limit %d", c.Gateways, math.MaxUint16)
	case c.Slots <= 0:
		return fmt.Errorf("engine: Slots %d <= 0", c.Slots)
	case c.Slots > math.MaxInt32:
		// Wake slots are int32 in a node's record and its backlog cells.
		return fmt.Errorf("engine: Slots %d exceeds the int32 slot limit %d", c.Slots, math.MaxInt32)
	case c.ArrivalPerSlot < 0 || c.ArrivalPerSlot > 1 || math.IsNaN(c.ArrivalPerSlot):
		return fmt.Errorf("engine: ArrivalPerSlot %g outside [0,1]", c.ArrivalPerSlot)
	case c.QueueCap < 0:
		return fmt.Errorf("engine: QueueCap %d < 0", c.QueueCap)
	case c.QueueCap > math.MaxUint16:
		// A node's backlog length is a uint16 in its backlog record.
		return fmt.Errorf("engine: QueueCap %d exceeds the uint16 backlog length limit %d", c.QueueCap, math.MaxUint16)
	case c.MaxBackoffExp < 0 || c.MaxBackoffExp > 30:
		return fmt.Errorf("engine: MaxBackoffExp %d outside [0,30]", c.MaxBackoffExp)
	case c.SideM < 0 || math.IsNaN(c.SideM) || math.IsInf(c.SideM, 0):
		return fmt.Errorf("engine: SideM %g is not a finite length >= 0", c.SideM)
	case c.SlotSeconds < 0 || math.IsNaN(c.SlotSeconds) || math.IsInf(c.SlotSeconds, 0):
		return fmt.Errorf("engine: SlotSeconds %g is not a finite duration >= 0", c.SlotSeconds)
	case c.Receiver == nil:
		return fmt.Errorf("engine: nil Receiver")
	case c.ADR < ADRFastestSNR || c.ADR >= numADRPolicies:
		return fmt.Errorf("engine: unknown ADR policy %d", int(c.ADR))
	}
	if err := lora.CheckPayloadLen(c.PayloadLen); err != nil {
		return fmt.Errorf("engine: PayloadLen: %w", err)
	}
	// A receiver whose model is a table (mac.ModelReceiver, and the capture
	// model over one) says whether the table is usable: an empty one would
	// panic inside a band, a NaN one would run.
	if rx, ok := c.Receiver.(interface{ Check() error }); ok {
		if err := rx.Check(); err != nil {
			return fmt.Errorf("engine: Receiver: %w", err)
		}
	}
	for fi, fn := range c.Foreign {
		switch {
		case fn.Nodes < 0:
			return fmt.Errorf("engine: Foreign[%d].Nodes %d < 0", fi, fn.Nodes)
		case fn.ArrivalPerSlot < 0 || fn.ArrivalPerSlot > 1 || math.IsNaN(fn.ArrivalPerSlot):
			return fmt.Errorf("engine: Foreign[%d].ArrivalPerSlot %g outside [0,1]", fi, fn.ArrivalPerSlot)
		case fn.ADR < ADRFastestSNR || fn.ADR >= numADRPolicies:
			return fmt.Errorf("engine: Foreign[%d]: unknown ADR policy %d", fi, int(fn.ADR))
		}
	}
	return nil
}

// Derived-draw dimension tags. Every random decision in the engine hashes
// (Seed, one tag, stable logical coordinates); the tags keep independent
// decision families from aliasing (DeriveSeed is order-sensitive, so a tag
// prefix fully separates streams).
const (
	dimPos     = 1 // node placement jitter: (tag, node, axis)
	dimShadow  = 2 // log-normal shadowing: (tag, node, draw)
	dimArrival = 3 // geometric inter-arrival gaps: (tag, node, arrivalIdx)
	dimDecode  = 4 // per-transmission decode Bernoulli: (tag, node, slot)
	dimVeto    = 5 // unslotted-ALOHA overlap draws: (tag, node, slot, j)
	dimBackoff = 6 // ALOHA backoff offset: (tag, node, slot)
	dimSweep   = 7 // density-sweep per-point seeds: (tag, point, trial)

	// Foreign-network dimensions. Foreign draws live in their own hash
	// families, so configuring foreign networks can never shift a home
	// node's placement, shadowing, arrival, or decode draws — the
	// zero-foreign transparency test pins that.
	dimForeignPos    = 8  // foreign node placement: (tag, net, node, axis)
	dimForeignShadow = 9  // foreign node shadowing: (tag, net, node)
	dimForeignTx     = 10 // foreign slot counts: (tag, gateway, slot, sfIdx, draw)
)

// unitOf maps a derived hash to a uniform float64 in [0,1), the same
// 53-bit construction math/rand/v2 uses.
func unitOf(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// nodeState is the record every client keeps: 16 bytes and no pointers,
// so the node array is one allocation the garbage collector never scans and
// no record straddles two cache lines (TestNodeStateLayout pins all three).
// The MAC state of a node that holds packets — its queue, next attempt and
// backoff — lives in its band's pool of backlog records (backlogState), so
// the many idle nodes of a sparse city pay for none of it. The engine's
// memory is this flat array plus O(scheduled events) plus the bands' pools —
// no per-node metrics, maps or slices. The field widths are what Validate's
// limits buy: Slots <= MaxInt32 for the arrival slot and count (a node has
// at most one arrival a slot) and Gateways <= 65535 for gw.
type nodeState struct {
	// nextArrival is the slot of the node's next traffic arrival, -1 when
	// none falls inside the horizon.
	nextArrival int32
	// arrivalIdx counts arrivals drawn so far (the geometric draw index).
	arrivalIdx uint32
	// backlog is the node's record in its band's backlogs pool, 0 while its
	// queue is empty: it takes one with its first queued packet and gives
	// it back when the queue drains (band.takeBacklog, releaseBacklog).
	backlog int32
	// gw is the attached gateway, valid once sf != 0.
	gw uint16
	// sf is the node's rate-adapted spreading factor: 0 = channel state
	// not yet evaluated (lazy), -1 = out of range of every gateway,
	// otherwise 7..12.
	sf int8
	// pwr indexes TxPowersDBm: the node's ADR-chosen transmit-power rung.
	pwr uint8
}

// backlogState is the MAC state of a node with packets queued: 16 bytes
// and no pointers, in its band's pool. A node without one is idle in every
// field it holds: no packet, no attempt scheduled (nextTx -1) and no
// backoff (backoffExp 0). That is exact because an empty queue implies both:
// a node starts with nextTx -1 (an unreachable one keeps it), a queue
// drains only through finishTx's delivered branch, which resets both, and a
// drop needs a full, so non-empty, queue.
type backlogState struct {
	// nextTx is the slot of the node's next transmission attempt. A backoff
	// that lands at or past the horizon stores Slots (finishTx): no driver
	// fires a wake there, so the clamp changes no result.
	nextTx int32
	// The queue is a FIFO list through band.cells: qHead is the oldest
	// packet's cell, qTail the newest's. A free record's qHead links the
	// band's free list instead.
	qHead, qTail int32
	// qLen is at least 1 while a node holds the record; QueueCap <= 65535
	// bounds it.
	qLen       uint16
	backoffExp uint8
}

// nextTxOf returns the slot of node ns's next transmission attempt, -1 if
// it holds no packet.
func (b *band) nextTxOf(ns *nodeState) int32 {
	if ns.backlog == 0 {
		return -1
	}
	return b.backlogs[ns.backlog].nextTx
}

// wakeOf returns the node's next wake slot: the earlier of its next
// arrival and next transmission, -1 if neither is scheduled.
func (b *band) wakeOf(ns *nodeState) int64 {
	w := ns.nextArrival
	if tx := b.nextTxOf(ns); tx >= 0 && (w < 0 || tx < w) {
		w = tx
	}
	return int64(w)
}

// core is the shared model both drivers execute: configuration after
// defaulting, the precomputed topology, the per-dimension hash-chain heads,
// and the flat node-state array. Nothing in it changes during a run but the
// node records, and each band writes only its own (band).
type core struct {
	cfg      Config
	slots    int64
	queueCap int
	maxBoExp uint8
	// capacity is Receiver.Capacity() clamped to [1, MaxInt32]: the per-group
	// tallies it is compared with are int32, and no group can hold more
	// than Nodes <= MaxInt32 transmitters, so the clamp changes no result —
	// it only keeps "uncapped" (math.MaxInt) from wrapping negative.
	capacity  int32
	unslotted bool
	logq      float64 // ln(1 - ArrivalPerSlot), for geometric gaps
	// arrivalAfter's fast routes, which choose how a draw is evaluated and
	// never what it returns: invLogq is 1/logq, gapGuard how far (per unit of
	// 1+|ln(1-u)|) a table-made quotient must stay from an integer to be
	// trusted, and pastHorizon[left>>phShift] the largest 1-u whose gap
	// cannot fit in left slots, whatever left in that block of 1<<phShift.
	invLogq, gapGuard float64
	pastHorizon       []float64
	phShift           uint

	// Topology: nodes on a jittered grid×grid layout over a sideM square,
	// gateways on their own gwX×gwY grid at cell centers.
	grid       int
	cellM      float64
	sideM      float64
	gwCols     int
	gwRows     int
	gwPosX     []float64
	gwPosY     []float64
	noiseFloor float64
	shadowSig  float64
	pl         channel.PathLossModel

	// energyNJ[sfIdx][pwrIdx] is one transmission's radiated energy in
	// integer nanojoules (airtime × linear milliwatts), rounded once so the
	// run total is an exact integer sum.
	energyNJ [6][5]int64

	// Per-dimension chain heads: hX = Mix(Start(seed), dimX), so one draw
	// is one or two more Mix folds — no allocation, no shared stream.
	hPos, hShadow, hArrival, hDecode, hVeto, hBackoff uint64

	// Foreign-network offered load, resolved once at init: foreignRate[gw]
	// holds the summed per-slot transmission rate λ of every reachable
	// foreign node attached to gw, by SF index, and foreignFloor[gw] the
	// exp(-λ) a Poisson draw at that rate stops at, which does not change
	// during a run. foreignOn gates the whole interference path so
	// zero-foreign configs skip it entirely.
	hForeignTx   uint64
	foreignRate  [][6]float64
	foreignFloor [][6]float64
	foreignOn    bool

	nodes []nodeState
}

// band is one share of a run: the nodes attached to the gateway rows
// [rowLo, rowHi), and everything a driver changes while it runs them beside
// their records — the backlog pools, the Metrics and the live stream. Node
// IDs run row by row over the grid, so a band's nodes are the IDs [lo, hi),
// less the nodes of a grid row that straddles a band edge and attaches to
// the other side; IDs in [sureLo, sureHi) lie in rows wholly inside the
// band and need no test (owns).
type band struct {
	*core
	rowLo, rowHi   int
	lo, hi         int32
	sureLo, sureHi int32

	m  *Metrics
	lp *liveProgress
	// active is the slots the band had work in, as ascending, disjoint
	// [lo, hi) runs: the join counts a run's ActiveSlots as their union.
	active []slotRun

	// backlogs is the records of the band's nodes that hold packets
	// (nodeState.backlog) and freeBacklog the list of released ones; cells
	// is the packets, each node's queue a list through it
	// (backlogState.qHead) and freeCell the list of released ones. So a
	// backlog costs no allocation of its own. Index 0 of either pool is
	// never used: 0 ends a list.
	backlogs    []backlogState
	freeBacklog int32
	cells       []packetCell
	freeCell    int32
	// touched is where step's gather pass leaves what it read.
	touched int64
	// step's tables, kept across slots: the slot's transmitters, its
	// per-group counts and the previous active slot's (lastSlot), each
	// group's decode probability and kept successes (indexed by groupOf;
	// only the groups a slot touches are cleared and visited), the foreign
	// memo, and the woken nodes' next wakes for the driver to schedule.
	tx                 []int32
	counts, lastCounts *groupCounts
	probs              []float64
	taken              []int32
	lastSlot           int64
	fsl                foreignSlot
	pending            []farWake
	// Bands are allocated side by side and run on different cores, and
	// each writes its fields above on every packet. The pad keeps them off
	// the cache lines, and the 128-byte line pairs the prefetcher fetches
	// together, that the next band reads (TestBandPadSeparatesBands): a
	// 160-byte band without it shares a line with its neighbour at every
	// other boundary of its size class, and city_dense's cpu_us_per_op read
	// 0.11 or 0.145 µs a run on 2 vCPU (DESIGN.md §15).
	_ [128]byte
}

// slotRun is the slots [lo, hi).
type slotRun struct{ lo, hi int32 }

// maxUnit is the largest value unitOf returns.
const maxUnit = float64(1<<53-1) / (1 << 53)

// newBand returns the band of gateway rows [rowLo, rowHi), streaming into
// lp. A node of grid row r lies between gridPos(r, 0) and gridPos(r, maxUnit),
// and gwRowOf is monotone, so the rows where the two ends fall in the band
// are wholly inside it and the rows where both fall outside are out of it.
func (c *core) newBand(rowLo, rowHi int, lp *liveProgress) *band {
	groups := c.cfg.Gateways << 3
	b := &band{core: c, rowLo: rowLo, rowHi: rowHi, m: c.newMetrics(), lp: lp,
		backlogs: make([]backlogState, 1), cells: make([]packetCell, 1),
		counts: newGroupCounts(groups), lastCounts: newGroupCounts(groups),
		probs: make([]float64, groups), taken: make([]int32, groups), lastSlot: -2}
	rows := (len(c.nodes) + c.grid - 1) / c.grid
	firstID := func(u float64, gwRow int) int32 {
		r := sort.Search(rows, func(r int) bool { return c.gwRowOf(c.gridPos(r, u)) >= gwRow })
		return int32(min(r*c.grid, len(c.nodes)))
	}
	b.lo, b.hi = firstID(maxUnit, rowLo), firstID(0, rowHi)
	b.sureLo, b.sureHi = firstID(0, rowLo), firstID(maxUnit, rowHi)
	return b
}

// owns reports whether node i attaches to one of the band's gateway rows;
// i must lie in [b.lo, b.hi).
func (b *band) owns(i int32) bool {
	if i >= b.sureLo && i < b.sureHi {
		return true
	}
	_, y := b.posOf(i)
	r := b.gwRowOf(y)
	return r >= b.rowLo && r < b.rowHi
}

// packetCell is one queued packet, identified by the slot it arrived in so
// delivery latency needs nothing else: 8 bytes, since every slot fits an
// int32.
type packetCell struct {
	arrival int32
	next    int32
}

// takeBacklog gives node ns a backlog record for a first packet arriving
// at slot s: an empty queue, no backoff, and an attempt in the same slot,
// since an idle node answers a fresh arrival at once. A node holds at most
// one record, so the pool never outgrows the int32 node IDs.
func (b *band) takeBacklog(ns *nodeState, s int64) *backlogState {
	i := b.freeBacklog
	if i != 0 {
		b.freeBacklog = b.backlogs[i].qHead
	} else {
		i = int32(len(b.backlogs))
		b.backlogs = append(b.backlogs, backlogState{})
	}
	ns.backlog = i
	bl := &b.backlogs[i]
	*bl = backlogState{nextTx: int32(s)}
	return bl
}

// releaseBacklog returns node ns's drained backlog record to the free list.
func (b *band) releaseBacklog(ns *nodeState) {
	b.backlogs[ns.backlog].qHead, b.freeBacklog = b.freeBacklog, ns.backlog
	ns.backlog = 0
}

// pushPacket appends a packet that arrived at slot s to a backlog.
func (b *band) pushPacket(bl *backlogState, s int64) {
	i := b.freeCell
	if i != 0 {
		b.freeCell = b.cells[i].next
	} else {
		if len(b.cells) > math.MaxInt32 {
			panic("engine: backlog pool exceeds the int32 cell index")
		}
		i = int32(len(b.cells))
		b.cells = append(b.cells, packetCell{})
	}
	b.cells[i] = packetCell{arrival: int32(s)}
	if bl.qLen == 0 {
		bl.qHead = i
	} else {
		b.cells[bl.qTail].next = i
	}
	bl.qTail = i
	bl.qLen++
}

// popPacket removes a backlog's oldest packet and returns its arrival slot.
// The backlog must not be empty.
func (b *band) popPacket(bl *backlogState) int64 {
	i := bl.qHead
	cell := &b.cells[i]
	bl.qHead = cell.next
	bl.qLen--
	cell.next, b.freeCell = b.freeCell, i
	return int64(cell.arrival)
}

// newCore applies defaults, precomputes the topology, and allocates the
// node array. cfg must already be validated.
func newCore(cfg Config) *core {
	if cfg.Gateways == 0 {
		cfg.Gateways = 1
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 64
	}
	if cfg.MaxBackoffExp == 0 {
		cfg.MaxBackoffExp = 8
	}
	if cfg.PayloadLen == 0 {
		cfg.PayloadLen = 12
	}
	gwCols := int(math.Ceil(math.Sqrt(float64(cfg.Gateways))))
	gwRows := (cfg.Gateways + gwCols - 1) / gwCols
	if cfg.SideM == 0 {
		// ~1.6 km per gateway cell: the paper's single-client urban range
		// is ~1 km, so the default city is dense enough that most nodes
		// reach a gateway but the far corners need the slow SFs.
		cfg.SideM = 1600 * float64(gwCols)
	}
	if cfg.SlotSeconds == 0 {
		p := sfParams(5) // SF12, the slowest rate
		cfg.SlotSeconds = p.AirTime(cfg.PayloadLen) * 1.1
	}

	c := &core{
		cfg:       cfg,
		slots:     int64(cfg.Slots),
		queueCap:  cfg.QueueCap,
		maxBoExp:  uint8(cfg.MaxBackoffExp),
		capacity:  int32(min(max(cfg.Receiver.Capacity(), 1), math.MaxInt32)),
		unslotted: cfg.Unslotted && cfg.Scheme == mac.SchemeAloha,
		grid:      int(math.Ceil(math.Sqrt(float64(cfg.Nodes)))),
		sideM:     cfg.SideM,
		gwCols:    gwCols,
		gwRows:    gwRows,
		nodes:     make([]nodeState, cfg.Nodes),
	}
	if p := cfg.ArrivalPerSlot; p > 0 && p < 1 {
		c.logq = math.Log1p(-p)
		c.invLogq, c.gapGuard = 1/c.logq, -1e-11/c.logq
		for c.slots>>c.phShift >= 1024 {
			c.phShift++
		}
		c.pastHorizon = make([]float64, c.slots>>c.phShift+1)
		for j := range c.pastHorizon {
			// ln(1-u) at or under this exponent puts ln(1-u)/logq above the
			// block's largest left by 1e-9 of it and 1e-12/|logq|: 10^7
			// times what Exp, Log1p and the division can round away.
			left := float64((int64(j)+1)<<c.phShift - 1)
			c.pastHorizon[j] = math.Exp(left*c.logq*(1+1e-9) - 1e-12)
		}
	}
	c.cellM = c.sideM / float64(c.grid)
	for g := 0; g < cfg.Gateways; g++ {
		col, row := g%gwCols, g/gwCols
		c.gwPosX = append(c.gwPosX, (float64(col)+0.5)*c.sideM/float64(gwCols))
		c.gwPosY = append(c.gwPosY, (float64(row)+0.5)*c.sideM/float64(gwRows))
	}
	c.pl = sim.UrbanChannel()
	c.noiseFloor = sim.ReceiverConfig().NoiseFloorDBm
	c.shadowSig = c.pl.ShadowSigmaDB
	for si := range c.energyNJ {
		air := sfParams(si).AirTime(cfg.PayloadLen)
		for pi, dbm := range TxPowersDBm {
			// mW × s = mJ; ×1e6 → nJ. Rounded once here, accumulated as
			// integers forever after.
			c.energyNJ[si][pi] = int64(math.Round(air * math.Pow(10, dbm/10) * 1e6))
		}
	}

	h0 := exec.Start(cfg.Seed)
	c.hPos = exec.Mix(h0, dimPos)
	c.hShadow = exec.Mix(h0, dimShadow)
	c.hArrival = exec.Mix(h0, dimArrival)
	c.hDecode = exec.Mix(h0, dimDecode)
	c.hVeto = exec.Mix(h0, dimVeto)
	c.hBackoff = exec.Mix(h0, dimBackoff)
	c.hForeignTx = exec.Mix(h0, dimForeignTx)
	c.initForeign(exec.Mix(h0, dimForeignPos), exec.Mix(h0, dimForeignShadow))
	return c
}

// initForeign resolves every foreign node's channel once — placement,
// shadowing, and its network's ADR choice — and folds the reachable ones
// into per-(gateway, SF) Poisson rates, each with its exp(-λ). Foreign
// nodes keep no queues: their slot-level transmitter counts are drawn from
// these rates on demand, so a foreign network adds O(gateways) state, not
// O(nodes).
func (c *core) initForeign(hFP, hFS uint64) {
	for _, fn := range c.cfg.Foreign {
		if fn.Nodes > 0 && fn.ArrivalPerSlot > 0 {
			c.foreignOn = true
		}
	}
	if !c.foreignOn {
		return
	}
	c.foreignRate = make([][6]float64, len(c.gwPosX))
	for ni, fn := range c.cfg.Foreign {
		if fn.Nodes <= 0 || fn.ArrivalPerSlot <= 0 {
			continue
		}
		hp := exec.Mix(hFP, uint64(ni))
		hs := exec.Mix(hFS, uint64(ni))
		for j := 0; j < fn.Nodes; j++ {
			hpj := exec.Mix(hp, uint64(j))
			x := unitOf(exec.Mix(hpj, 0)) * c.sideM
			y := unitOf(exec.Mix(hpj, 1)) * c.sideM
			gw, sf, _, ok := c.channelOf(fn.ADR, x, y, exec.Mix(hs, uint64(j)))
			if !ok {
				continue
			}
			c.foreignRate[gw][int(sf)-7] += fn.ArrivalPerSlot
		}
	}
	c.foreignFloor = make([][6]float64, len(c.foreignRate))
	for gw := range c.foreignRate {
		for si, lam := range &c.foreignRate[gw] {
			c.foreignFloor[gw][si] = math.Exp(-lam)
		}
	}
}

// newMetrics returns a Metrics with the configuration echoes filled in
// from the defaulted config; drivers accumulate the totals into it.
func (c *core) newMetrics() *Metrics {
	return &Metrics{
		Nodes:       c.cfg.Nodes,
		Gateways:    c.cfg.Gateways,
		Slots:       c.cfg.Slots,
		PayloadLen:  c.cfg.PayloadLen,
		SlotSeconds: c.cfg.SlotSeconds,
	}
}

// arrivalAfter returns the slot of node i's arrival number idx — base plus
// a geometric number of empty slots — or -1 when that is at or past the
// horizon. Saturated traffic (p >= 1) arrives at base with no draw.
func (c *core) arrivalAfter(i int32, idx uint64, base int64) int64 {
	left := c.slots - base
	switch {
	case left <= 0 || c.cfg.ArrivalPerSlot <= 0:
		return -1
	case c.cfg.ArrivalPerSlot >= 1:
		return base
	}
	g := c.gapOf(unitOf(exec.Mix(exec.Mix(c.hArrival, uint64(i)), idx)), left)
	if g < 0 {
		return -1
	}
	return base + g
}

// gapOf maps a uniform draw to its geometric gap, or to -1 when the gap is
// left slots or more. One expression defines the result — the inverse CDF
// floor(ln(1-u)/ln(1-p)) from math.Log1p, both logs <= 0 — and the two
// routes ahead of it only return what it would: a draw pastHorizon rules
// out takes no logarithm, and lnUnit's quotient is believed only where its
// error (under 1e-11 of 1+|ln|; 2e-13 in fact) cannot reach an integer.
// 1-u is exact: u is a multiple of 2^-53.
func (c *core) gapOf(u float64, left int64) int64 {
	if 1-u <= c.pastHorizon[left>>c.phShift] {
		return -1
	}
	l := lnUnit(1 - u)
	if q := l * c.invLogq; q >= 0 && q < float64(left) {
		g := int64(q)
		if d, guard := q-float64(g), c.gapGuard*(1-l); d > guard && d < 1-guard {
			return g
		}
	}
	// A quotient of 2^63 or more (p below ~4e-18) has no int64, and no
	// horizon holds it.
	if q := math.Log1p(-u) / c.logq; q < 1<<63 {
		if g := int64(q); g < left {
			return g
		}
	}
	return -1
}

// lnTab[k] is (1/m, ln m) at the middle m of the k-th of 128 equal steps
// of [1, 2).
var lnTab = func() (t [128][2]float64) {
	for k := range t {
		inv := 1 / (1 + (float64(k)+0.5)/128)
		t[k] = [2]float64{inv, -math.Log(inv)}
	}
	return t
}()

// lnUnit approximates ln v for a positive normal v to 2e-13 of 1+|ln v|, and
// on [1-2^-8, 1) to 6e-15 absolute: exponent, table step, and four terms of
// ln(1+r) for the |r| <= 2^-8 that is left (<= 2^-9 in the top step). It
// reads +1.8e-13 at v = 1. TestLnUnitAccuracy holds the bounds the gapOf
// and fastestSF guards assume.
func lnUnit(v float64) float64 {
	b := math.Float64bits(v)
	t := &lnTab[b>>45&127]
	r := math.Float64frombits(b&(1<<52-1)|1023<<52)*t[0] - 1
	return float64(int(b>>52)-1023)*math.Ln2 + t[1] + r*(1-r*(0.5-r*(1.0/3-r*0.25)))
}

// initArrivals seeds every node's first arrival; the node holds no backlog
// yet. With no traffic the whole city stays asleep (nextArrival -1).
func (c *core) initArrivals(i int32) {
	c.nodes[i].nextArrival = int32(c.arrivalAfter(i, 0, 0))
}

// resolveChannel lazily evaluates node i's channel state on first wake:
// position from the jittered grid, then channelOf under the configured ADR
// policy. It returns false — and parks the node forever — when the policy's
// choice cannot reach the gateway. The evaluation is pure in (Seed, i), so
// it never matters which driver performs it, or when.
func (c *core) resolveChannel(ns *nodeState, i int32) bool {
	x, y := c.posOf(i)
	gw, sf, pwr, ok := c.channelOf(c.cfg.ADR, x, y, exec.Mix(c.hShadow, uint64(i)))
	if !ok {
		ns.sf = -1
		return false
	}
	ns.sf = sf
	ns.gw = uint16(gw)
	ns.pwr = pwr
	return true
}

// channelOf resolves the link of a node at (x, y) whose shadowing chain head
// is hs — its nearest gateway, then the policy's SF and TX-power rung, ok
// false when that choice cannot reach the gateway — for home first wakes
// and foreign nodes alike. One expression defines the result: the distance
// from math.Hypot clamped at 1 m, shadowZ, adrSelect. fastestSF, ahead of it
// for ADRFastestSNR, only answers where it returns the same.
func (c *core) channelOf(policy ADRPolicy, x, y float64, hs uint64) (gw int32, sf int8, pwr uint8, ok bool) {
	gw, dx, dy := c.gatewayOf(x, y)
	u1 := unitOf(exec.Mix(hs, 0))
	u2 := unitOf(exec.Mix(hs, 1))
	if policy == ADRFastestSNR {
		if sf, ok, sure := c.fastestSF(dx*dx+dy*dy, u1, u2); sure {
			return gw, sf, defaultPwrIdx, ok
		}
	}
	sf, pwr, ok = c.adrSelect(policy, max(math.Hypot(dx, dy), 1), shadowZ(u1, u2))
	return gw, sf, pwr, ok
}

// posOf is node i's position: its cell of the jittered grid, row by row
// from the origin, and a uniform offset within the cell.
func (c *core) posOf(i int32) (x, y float64) {
	hp := exec.Mix(c.hPos, uint64(i))
	return c.gridPos(int(i)%c.grid, unitOf(exec.Mix(hp, 0))), c.gridPos(int(i)/c.grid, unitOf(exec.Mix(hp, 1)))
}

// gridPos is the coordinate, along either axis, of a node in row or column
// k of the node grid whose jitter unit on that axis is u.
func (c *core) gridPos(k int, u float64) float64 {
	return (float64(k) + u) * c.cellM
}

// gwRowOf maps a y coordinate to its gateway row: gatewayOf's row, and the
// row that decides a node's band.
func (c *core) gwRowOf(y float64) int {
	return min(int(y/c.sideM*float64(c.gwRows)), c.gwRows-1)
}

// gatewayOf maps a position to its nearest gateway, by grid cell, and the
// position's offset from that gateway.
func (c *core) gatewayOf(x, y float64) (int32, float64, float64) {
	gcol := int(x / c.sideM * float64(c.gwCols))
	if gcol >= c.gwCols {
		gcol = c.gwCols - 1
	}
	gw := c.gwRowOf(y)*c.gwCols + gcol
	if gw >= len(c.gwPosX) {
		gw = len(c.gwPosX) - 1
	}
	return int32(gw), x - c.gwPosX[gw], y - c.gwPosY[gw]
}

// snrGuard is how far, in dB, fastestSF's SNR must stay from every rung of
// the SF ladder to be believed: 100 times its error budget.
const snrGuard = 1e-4

// fastestSF is the ADRFastestSNR choice for a link of square distance d2
// and shadowing units (u1, u2) with no Hypot, Log10 or Log1p: the median
// loss is RefLossDB + (5·Exponent/ln 10)·lnUnit(d²/ref²), d² clamped as the
// distance is, and the shadowing draw sqrt(−2·lnUnit(1−u1))·cos(2π·u2), 1−u1
// exact. sure reports that (sf, ok) is adrSelect's answer for the same link;
// it is false when the SNR lies within snrGuard of a threshold
// DemodThresholdDB(sf)+1 or is NaN, or d²/ref² is no normal.
//
// Error budget, against adrSelect's SNR: lnUnit's error, 2e-13 of 1+|ln|,
// moves the median loss by under 3e-9 dB even at d² = MaxFloat64. In z,
// sqrt turns lnUnit's error near 1 (6e-15 on [1-2^-8, 1)) into at most
// sqrt(2·6e-15) = 1.1e-7 and its error below that into under 3e-12; times
// σ = 6 dB, 6.6e-7 dB. The rest is roundings of sums under 10^3 dB. The two
// SNRs differ by under 1e-6 dB, a hundredth of snrGuard. At u1 = 0 lnUnit
// reads +1.8e-13, the root is NaN, and the link takes the exact path.
func (c *core) fastestSF(d2, u1, u2 float64) (sf int8, ok, sure bool) {
	ref2 := c.pl.RefDistance * c.pl.RefDistance
	v := max(d2, 1, ref2) / ref2
	if !(v <= math.MaxFloat64) {
		return 0, false, false
	}
	z := math.Sqrt(-2*lnUnit(1-u1)) * math.Cos(2*math.Pi*u2)
	loss := c.pl.RefLossDB + 5*c.pl.Exponent/math.Ln10*lnUnit(v) + c.shadowSig*z
	snr := sim.ClientPowerDBm - loss - c.noiseFloor
	// DemodThresholdDB is linear in the SF, so SF7+j clears at top - j·step:
	// f is where snr sits on the ladder in rungs, g the guard in rungs. No
	// branch on which rung, and a NaN fails every comparison.
	top := sim.DemodThresholdDB(lora.SF7) + 1
	step := top - sim.DemodThresholdDB(lora.SF8) - 1
	g := snrGuard / step
	f := (top - snr) / step
	switch {
	case f <= -g:
		return int8(lora.SF7), true, true
	case f >= float64(lora.SF12-lora.SF7)+g:
		return -1, false, true
	}
	if j := math.Ceil(f); j-f > g && f-(j-1) > g {
		return int8(lora.SF7) + int8(j), true, true
	}
	return 0, false, false
}

// shadowZ is the standard normal Box-Muller makes of a node's two shadowing
// units, on (1-u1, u2): log1p(-u1) keeps the argument nonzero.
func shadowZ(u1, u2 float64) float64 {
	return math.Sqrt(-2*math.Log1p(-u1)) * math.Cos(2*math.Pi*u2)
}

// adrSelect applies a rate-adaptation policy to a link of distance d with
// shadowing realization z and returns the chosen spreading factor, the
// transmit-power rung, and whether the link closes at that choice. Pure in
// its arguments, so it never matters which driver (or home vs foreign
// init) evaluates it. The ADRFastestSNR arm reproduces the
// original resolveChannel float operations exactly — the zero-value policy
// is bit-identical to the pre-ADR engine.
func (c *core) adrSelect(policy ADRPolicy, d, z float64) (sf int8, pwr uint8, ok bool) {
	medLoss := c.pl.LossDB(d, nil)
	loss := medLoss + c.shadowSig*z
	snr := sim.ClientPowerDBm - loss - c.noiseFloor
	switch policy {
	case ADRFixedSF12:
		if snr < sim.DemodThresholdDB(lora.SF12)+1 {
			return -1, defaultPwrIdx, false
		}
		return int8(lora.SF12), defaultPwrIdx, true
	case ADRDistance, ADRTxPower:
		// The SF comes from the median (shadowing-blind) link budget; the
		// real, shadowed SNR then has to clear the chosen SF's threshold or
		// the node overshot and cannot be served.
		medSNR := sim.ClientPowerDBm - medLoss - c.noiseFloor
		msf, okm := sim.SFForSNR(medSNR)
		if !okm {
			return -1, defaultPwrIdx, false
		}
		thr := sim.DemodThresholdDB(msf) + 1
		pwr = defaultPwrIdx
		if policy == ADRTxPower {
			// Lowest rung whose median SNR still clears the threshold; the
			// distance check above guarantees the top rung does.
			for i, dbm := range TxPowersDBm {
				if dbm-medLoss-c.noiseFloor >= thr {
					pwr = uint8(i)
					break
				}
			}
		}
		if TxPowersDBm[pwr]-loss-c.noiseFloor < thr {
			return -1, defaultPwrIdx, false
		}
		return int8(msf), pwr, true
	default: // ADRFastestSNR
		fsf, okf := sim.SFForSNR(snr)
		if !okf {
			return -1, defaultPwrIdx, false
		}
		return int8(fsf), defaultPwrIdx, true
	}
}

// groupOf returns the node's collision group: transmissions collide only
// within one (gateway, spreading factor) pair — different SFs are
// orthogonal and different gateways hear different cities.
func (c *core) groupOf(ns *nodeState) uint32 {
	return uint32(ns.gw)<<3 | uint32(ns.sf-7)
}

// wakeNode processes node i's wake at slot s — the lazy channel
// evaluation, a due arrival if any, and the tx-due decision — and reports
// whether the node transmits this slot. Both drivers call exactly this.
func (b *band) wakeNode(ns *nodeState, i int32, s int64, m *Metrics) bool {
	if ns.sf == 0 && !b.resolveChannel(ns, i) {
		// A first wake, so the node has queued nothing: parking it is
		// clearing its arrival.
		m.Unreachable++
		ns.nextArrival = -1
		return false
	}
	if int64(ns.nextArrival) == s {
		m.Arrivals++
		switch {
		case ns.backlog == 0:
			b.pushPacket(b.takeBacklog(ns, s), s)
		case int(b.backlogs[ns.backlog].qLen) < b.queueCap:
			b.pushPacket(&b.backlogs[ns.backlog], s)
		default:
			m.Dropped++
		}
		ns.arrivalIdx++
		ns.nextArrival = int32(b.arrivalAfter(i, uint64(ns.arrivalIdx), s+1))
	}
	return int64(b.nextTxOf(ns)) == s
}

// grantOracle is the genie TDMA scheduler (mac.SchemeOracle), the step a
// slot takes between collecting its would-be transmitters and resolving
// their contention. Per (gateway, SF) group the first Capacity()
// backlogged nodes in round-robin order from node s mod Nodes keep the
// slot; the rest move their attempt to s+1 without spending a
// transmission, so a group never offers the receiver more than it can
// resolve. tx holds the candidates in ascending node order; grantOracle
// returns the granted ones, in place and in that order, leaves the grant
// counts — the slot's contention counts — in counts, and reschedules every
// deferred node.
func (b *band) grantOracle(s int64, tx []int32, counts *groupCounts) []int32 {
	c := b.core
	counts.reset()
	start := int32(s % int64(c.cfg.Nodes))
	// Round-robin order over an ascending list is the IDs from start up,
	// then the wrap-around below it.
	for pass := 0; pass < 2; pass++ {
		for _, i := range tx {
			if (i < start) != (pass == 1) {
				continue
			}
			ns := &c.nodes[i]
			if g := c.groupOf(ns); counts.k[g] < c.capacity {
				counts.add(g)
			} else {
				b.backlogs[ns.backlog].nextTx = int32(s + 1)
			}
		}
	}
	kept := tx[:0]
	for _, i := range tx {
		if int64(b.nextTxOf(&c.nodes[i])) == s {
			kept = append(kept, i)
		} else {
			b.reschedule(i)
		}
	}
	return kept
}

// decodeDraw is the per-transmission Bernoulli draw: a transmission
// decodes when its draw falls below its group's groupProb.
func (c *core) decodeDraw(i int32, s int64) float64 {
	return unitOf(exec.Mix(exec.Mix(c.hDecode, uint64(i)), uint64(s)))
}

// vetoed applies the unslotted-ALOHA adjacent-slot overlap model to a
// decoded transmission: each neighbouring-slot transmission overlaps and
// destroys the packet with probability 1/2, and the previous slot's prevK
// same-group transmissions stand in for both neighbours (hence 2×; the
// unknown next slot is symmetric to the previous one in steady state).
func (c *core) vetoed(i int32, s int64, prevK int32) bool {
	if !c.unslotted || prevK <= 0 {
		return false
	}
	h := exec.Mix(exec.Mix(c.hVeto, uint64(i)), uint64(s))
	for j := int32(0); j < 2*prevK; j++ {
		if unitOf(exec.Mix(h, uint64(j))) < 0.5 {
			return true
		}
	}
	return false
}

// finishTx settles node i's transmission at slot s — delivery accounting
// or the scheme's retry policy — and schedules the node's next attempt. A
// delivery that drains the queue gives the node's backlog record back.
func (b *band) finishTx(ns *nodeState, i int32, s int64, delivered bool, m *Metrics) {
	sfIdx := int(ns.sf) - 7
	m.Transmissions++
	m.PerSFTx[sfIdx]++
	m.TxEnergyNJ += b.energyNJ[sfIdx][ns.pwr]
	bl := &b.backlogs[ns.backlog]
	if delivered {
		lat := s - b.popPacket(bl) + 1
		m.Delivered++
		m.PerSFDelivered[sfIdx]++
		m.TotalLatencySlots += lat
		m.LatencyHist[latencyBucket(lat)]++
		if bl.qLen > 0 {
			bl.backoffExp = 0
			bl.nextTx = int32(s + 1)
		} else {
			b.releaseBacklog(ns)
		}
		return
	}
	m.CollidedTx++
	if b.cfg.Scheme == mac.SchemeAloha {
		// Binary exponential backoff; the window is a power of two, so
		// masking the derived hash is exactly uniform.
		if bl.backoffExp < b.maxBoExp {
			bl.backoffExp++
		}
		w := uint64(1) << bl.backoffExp
		off := exec.Mix(exec.Mix(b.hBackoff, uint64(i)), uint64(s)) & (w - 1)
		// A wake at or past the horizon never fires, so it is stored as the
		// horizon itself, which the int32 always holds.
		bl.nextTx = int32(min(s+1+int64(off), b.slots))
	} else {
		// Choir answers the next beacon; Oracle asks the genie again.
		bl.nextTx = int32(s + 1)
	}
}

// latencyBucket maps a delivery latency (in slots, >= 1) to its
// power-of-two histogram bucket, saturating in the last one.
func latencyBucket(lat int64) int {
	b := bits.Len64(uint64(lat)) - 1
	if b >= len(Metrics{}.LatencyHist) {
		b = len(Metrics{}.LatencyHist) - 1
	}
	return b
}

// sfParams returns the PHY configuration for spreading-factor index
// 0..5 (SF7..SF12) at the code rate LoRaWAN rate adaptation picks.
func sfParams(sfIdx int) lora.Params {
	return sim.ParamsForSF(lora.SF7 + lora.SpreadingFactor(sfIdx))
}

// Run simulates the configured city and returns its metrics: the slot
// driver on the calling goroutine, the event driver in bands of gateway
// rows on it and exec.Fan's helpers (run). Results are a pure function of
// Config minus Driver, whatever GOMAXPROCS is: the equivalence tests pin
// that both drivers, at every width, return Metrics bit-identical to the
// plain model's.
func Run(ctx context.Context, cfg Config) (*Metrics, error) {
	if cfg.Gateways == 0 {
		cfg.Gateways = 1
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var lp liveProgress
	m, err := run(ctxutil.Background(ctx), newCore(cfg), &lp)
	if err != nil {
		// Retract whatever the live stream published: a canceled run's net
		// accounting is zero, so a retry cannot double-count.
		lp.rollback()
		return nil, err
	}
	lp.finish(m)
	return m, nil
}
