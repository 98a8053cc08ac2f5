package engine

import (
	"context"
	"fmt"

	"choir/internal/mac"
)

// runEvent is the production driver: one event queue over every node
// jumps straight to the next slot with a scheduled wake, and that slot
// then runs exactly as runSlot runs it — the queue pops a slot's wakes in
// ascending node order, the order runSlot scans them in, so the capacity
// prefix rule keeps the same transmissions and the two drivers return
// bit-identical Metrics. The whole run stays on the calling goroutine: a
// slot holds tens of wakes, far too few to repay a fan-out and a barrier
// (DESIGN.md §15 has the measurement), so cores are spent across runs.
func runEvent(ctx context.Context, c *core, lp *liveProgress) (*Metrics, error) {
	m := c.newMetrics()
	q := NewEventQueue(len(c.nodes))
	// reschedule re-queues node i's next wake after its state changed,
	// pruning wakes beyond the horizon.
	reschedule := func(i int32) {
		w := c.nodes[i].wakeOf()
		if w >= c.slots {
			w = -1
		}
		q.Set(i, w)
	}
	for i := range c.nodes {
		c.initArrivals(int32(i))
		reschedule(int32(i))
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
	for s := q.MinSlot(); s >= 0; s = q.MinSlot() {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("engine: run canceled mid-drain after %d active slots: %w", m.ActiveSlots, err)
		}
		if m.ActiveSlots > 0 && m.ActiveSlots%liveFlushInterval == 0 {
			lp.flush(m)
		}
		m.ActiveSlots++
		txNodes = txNodes[:0]
		counts.reset()
		for q.MinSlot() == s {
			i, _ := q.PopMin()
			ns := &c.nodes[i]
			m.Events++
			if c.wakeNode(ns, i, s, m) {
				txNodes = append(txNodes, i)
				counts.add(c.groupOf(ns))
			} else {
				reschedule(i)
			}
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
			// in ascending node order.
			kept := false
			if c.decodeDraw(i, s) < probs[g] && taken[g] < int32(c.capacity) {
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

func (gc *groupCounts) add(g uint32) {
	if gc.k[g] == 0 {
		gc.groups = append(gc.groups, g)
	}
	gc.k[g]++
}
