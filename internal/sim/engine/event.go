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
	var (
		txNodes    []int32
		counts     = map[uint32]int32{}
		lastCounts = map[uint32]int32{}
		probs      = map[uint32]float64{}
		taken      = map[uint32]int32{}
		lastSlot   = int64(-2)
		fsl        foreignSlot
	)
	for s := q.MinSlot(); s >= 0; s = q.MinSlot() {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("engine: run canceled mid-drain after %d active slots: %w", m.ActiveSlots, err)
		}
		if m.ActiveSlots > 0 && m.ActiveSlots%liveFlushInterval == 0 {
			lp.flush(m)
		}
		m.ActiveSlots++
		txNodes = txNodes[:0]
		clear(counts)
		for q.MinSlot() == s {
			i, _ := q.PopMin()
			ns := &c.nodes[i]
			m.Events++
			if c.wakeNode(ns, i, s, m) {
				txNodes = append(txNodes, i)
				counts[c.groupOf(ns)]++
			} else {
				reschedule(i)
			}
		}
		if c.cfg.Scheme == mac.SchemeOracle {
			c.grantOracle(s, &txNodes, counts, reschedule)
		}

		clear(probs)
		clear(taken)
		if c.foreignOn {
			fsl.beginSlot()
		}
		for g, k := range counts {
			probs[g] = c.groupProb(&fsl, g, k, s)
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
				prevK = lastCounts[g]
			}
			c.finishTx(ns, i, s, kept && !c.vetoed(i, s, prevK), m)
			reschedule(i)
		}
		lastSlot = s
		lastCounts, counts = counts, lastCounts
	}
	return m, nil
}
