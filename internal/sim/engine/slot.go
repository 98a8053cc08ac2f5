package engine

import (
	"context"
	"fmt"

	"choir/internal/mac"
)

// runSlot is the serial reference driver: it walks every slot in order and
// scans every node for due work. It is deliberately the simplest possible
// execution of the model in engine.go — no event queue — so the
// equivalence property tests can hold the event driver to it bit for bit.
// O(Nodes × Slots): use it for figure cells, small cities and validation,
// not for the million-node sweeps. The whole city is one band, on the
// calling goroutine.
func runSlot(ctx context.Context, c *core, lp *liveProgress) (*Metrics, error) {
	b := c.newBand(0, c.gwRows, lp)
	m := b.m
	for i := range c.nodes {
		c.initArrivals(int32(i))
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
	for s := int64(0); s < c.slots; s++ {
		if s%ctxCheckInterval == 0 && ctx.Err() != nil {
			return nil, fmt.Errorf("engine: run canceled at slot %d/%d: %w", s, c.slots, ctx.Err())
		}
		if s > 0 && s%liveFlushInterval == 0 {
			lp.flush(m)
		}
		txNodes = txNodes[:0]
		clear(counts)
		active := false
		for i := range c.nodes {
			ns := &c.nodes[i]
			if int64(ns.nextArrival) != s && int64(ns.nextTx) != s {
				continue
			}
			active = true
			m.Events++
			if b.wakeNode(ns, int32(i), s, m) {
				txNodes = append(txNodes, int32(i))
				counts[c.groupOf(ns)]++
			}
		}
		if !active {
			continue
		}
		m.ActiveSlots++
		if c.cfg.Scheme == mac.SchemeOracle {
			c.grantOracle(s, &txNodes, counts, nil)
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
			// A transmission survives when its Bernoulli decode draw
			// succeeds and it is among the first Capacity() successes of
			// its (gateway, SF) group in ascending node order.
			kept := false
			if c.decodeDraw(i, s) < probs[g] && taken[g] < c.capacity {
				taken[g]++
				kept = true
			}
			var prevK int32
			if prevContig {
				prevK = lastCounts[g]
			}
			b.finishTx(ns, i, s, kept && !c.vetoed(i, s, prevK), m)
		}
		lastSlot = s
		lastCounts, counts = counts, lastCounts
	}
	return m, nil
}
