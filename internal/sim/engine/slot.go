package engine

// runSlot is the slot driver, the reference the calendar is held to: it
// walks every slot in order, scans every node of the band for a wake due
// in it, and hands an active slot's wakes, ascending, to the same step the
// event driver runs. It runs as one band of the whole city on the caller
// (runBands), polls halt and streams live totals at the same active slots
// as the event driver, and costs O(Nodes × Slots): for small cities and
// validation, not for the million-node sweeps. What it holds the event
// driver to is the wake order; modelRun, in the tests, is the reference
// for the slot rule itself.
func (b *band) runSlot(halt func() bool) {
	c := b.core
	for i := b.lo; i < b.hi; i++ {
		c.initArrivals(i)
	}
	var ids []int32
	for s := int64(0); s < c.slots; s++ {
		ids = ids[:0]
		for i := b.lo; i < b.hi; i++ {
			if ns := &c.nodes[i]; int64(ns.nextArrival) == s || int64(b.nextTxOf(ns)) == s {
				ids = append(ids, i)
			}
		}
		if len(ids) == 0 {
			continue
		}
		if b.pause(halt) {
			return
		}
		b.step(s, ids)
		b.pending = b.pending[:0]
	}
}
