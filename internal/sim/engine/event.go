package engine

import (
	"context"
	"fmt"
	"slices"

	"choir/internal/mac"
)

// runEvent is the production driver: one event queue over every node
// jumps straight to the next slot with a scheduled wake, and that slot
// then runs as runSlot runs it, except that the queue hands over the
// slot's wakes as one batch in no particular order where runSlot scans
// nodes ascending. Only a rationed slot can tell the difference, and there
// the transmitters are sorted first (below), so the two drivers return
// bit-identical Metrics. The whole run stays on the calling goroutine: a
// slot holds tens of wakes, far too few to repay a fan-out and a barrier
// (DESIGN.md §15 has the measurement), so cores are spent across runs.
func runEvent(ctx context.Context, c *core, lp *liveProgress) (*Metrics, error) {
	m := c.newMetrics()
	// No wake is ever scheduled at or past Slots, so a window the horizon
	// already fits in never turns: the smaller of the two sizes it.
	q := NewEventQueue(min(len(c.nodes), c.cfg.Slots))
	// Calendar writes are batched the way the reads are (the gather pass
	// below): a push misses on the bucket head, then on the chunk it names,
	// and between two wakes' draws those misses go out one at a time; in a
	// loop of nothing but pushes some ten overlap. So init draws every first
	// arrival before it schedules any, and reschedule — called for a node
	// whose wake has just popped: after wakeNode, for the genie's deferrals,
	// after finishTx — only lists the node's next wake, pruned of anything
	// past the horizon, for the loop that ends the slot. Every listed wake
	// is for a later slot, so the queue's contract holds as before.
	var pending []farWake
	reschedule := func(i int32) {
		if w := c.nodes[i].wakeOf(); w >= 0 && w < c.slots {
			pending = append(pending, farWake{w, i})
		}
	}
	for i := range c.nodes {
		c.initArrivals(int32(i))
	}
	for i := range c.nodes {
		if w := c.nodes[i].nextArrival; w >= 0 {
			q.Set(int32(i), w)
		}
	}
	// The per-slot tables runSlot keeps in maps are slices indexed by
	// groupOf here, and only the groups a slot touches are cleared and
	// visited. The visit order differs from a map's, which is random to
	// begin with: groupProb is a pure function of (group, k, slot) — the
	// foreign draws are keyed on (gateway, slot, SF) and their total is an
	// integer sum — so no result depends on it.
	groups := c.cfg.Gateways << 3
	var (
		txNodes    []int32
		counts     = newGroupCounts(groups)
		lastCounts = newGroupCounts(groups)
		probs      = make([]float64, groups)
		taken      = make([]int32, groups)
		granted    map[uint32]int32 // grantOracle's tally, SchemeOracle only
		lastSlot   = int64(-2)
		fsl        foreignSlot
	)
	if c.cfg.Scheme == mac.SchemeOracle {
		granted = map[uint32]int32{}
	}
	for q.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("engine: run canceled mid-drain after %d active slots: %w", m.ActiveSlots, err)
		}
		if m.ActiveSlots > 0 && m.ActiveSlots%liveFlushInterval == 0 {
			lp.flush(m)
		}
		s, ids := q.NextSlot()
		m.ActiveSlots++
		m.Events += int64(len(ids))
		txNodes = txNodes[:0]
		counts.reset()
		// Gather, then process: touch every woken record first, in a loop
		// of independent loads, so the slot's cache misses overlap instead
		// of each waiting behind the previous node's resolveChannel and
		// log1p. nextArrival and sf are the record's first and last words
		// (TestNodeStateLayout), which covers the records that straddle two
		// cache lines; the sum is stored so the loads are not dead code.
		// The pass stays only while its own A/B says so: five interleaved
		// pairs with and without it read cpu_us_per_op 0.394 → 0.309 µs on
		// city_sparse (−21.5 %, ahead in 5 of 5) and 0.218 → 0.207 on
		// city_dense (ahead in 4 of 5, no loss) — EXPERIMENTS.md, "Engine
		// ledger, round two".
		var touched int64
		for _, i := range ids {
			ns := &c.nodes[i]
			touched += ns.nextArrival + int64(ns.sf)
		}
		c.touched = touched
		for _, i := range ids {
			ns := &c.nodes[i]
			if c.wakeNode(ns, i, s, m) {
				txNodes = append(txNodes, i)
				counts.add(c.groupOf(ns))
			} else {
				reschedule(i)
			}
		}
		// Order only what is rationed. The wakes came in no particular
		// order, and nothing above or below reads it: wakeNode, decodeDraw,
		// vetoed and finishTx draw from hashes of (node, slot) and touch one
		// node's record; every Metrics field is an integer sum; groupProb is
		// pure in (group, k, slot), whatever order groups are first seen in;
		// and which cell of the backlog pool or the calendar a packet or a
		// wake takes is never observable. Node order reaches a result in
		// exactly two places, both rations: the genie grants round-robin
		// over an ascending list, and a group with more transmitters than
		// the receiver's capacity keeps its first Capacity() successes in
		// ascending node order — a group within capacity never finds
		// taken[g] at the cap. So an Oracle slot and a slot with a group
		// above capacity sort their transmitters (not their wakes), and the
		// rest — every slot of a city that stays under MaxConcurrent — sort
		// nothing. runSlot scans ascending throughout;
		// TestEventSlotEquivalence holds this to it on both arms.
		if granted != nil || counts.anyAbove(c.capacity) {
			slices.Sort(txNodes)
		}
		if granted != nil {
			c.grantOracle(s, &txNodes, granted, reschedule)
			counts.reset()
			for _, i := range txNodes {
				counts.add(c.groupOf(&c.nodes[i]))
			}
		}

		if c.foreignOn {
			fsl.beginSlot()
		}
		for _, g := range counts.groups {
			probs[g] = c.groupProb(&fsl, g, counts.k[g], s)
			taken[g] = 0
		}
		m.ForeignTx = fsl.total
		prevContig := lastSlot == s-1
		for _, i := range txNodes {
			ns := &c.nodes[i]
			g := c.groupOf(ns)
			// Same rule as runSlot: the decode draw succeeds and the
			// transmission is among the group's first Capacity() successes
			// in ascending node order — txNodes is sorted whenever a group
			// has more than Capacity() to choose from.
			kept := false
			if c.decodeDraw(i, s) < probs[g] && taken[g] < c.capacity {
				taken[g]++
				kept = true
			}
			var prevK int32
			if prevContig {
				prevK = lastCounts.k[g]
			}
			c.finishTx(ns, i, s, kept && !c.vetoed(i, s, prevK), m)
			reschedule(i)
		}
		for _, w := range pending {
			q.Set(w.id, w.slot)
		}
		pending = pending[:0]
		lastSlot = s
		lastCounts, counts = counts, lastCounts
	}
	return m, nil
}

// groupCounts is one slot's transmitter count per collision group, with
// the list of groups that have any: resetting and visiting a slot costs
// its handful of live groups, not the gateways × 8 table.
type groupCounts struct {
	k      []int32
	groups []uint32
}

func newGroupCounts(groups int) *groupCounts {
	return &groupCounts{k: make([]int32, groups)}
}

func (gc *groupCounts) reset() {
	for _, g := range gc.groups {
		gc.k[g] = 0
	}
	gc.groups = gc.groups[:0]
}

// anyAbove reports whether some group holds more than limit transmitters.
func (gc *groupCounts) anyAbove(limit int32) bool {
	for _, g := range gc.groups {
		if gc.k[g] > limit {
			return true
		}
	}
	return false
}

func (gc *groupCounts) add(g uint32) {
	if gc.k[g] == 0 {
		gc.groups = append(gc.groups, g)
	}
	gc.k[g]++
}
