package engine

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"choir/internal/exec"
	"choir/internal/mac"
)

// runEvent is the production driver: one event queue per band jumps
// straight to the band's next slot with a scheduled wake, and that slot then
// runs as runSlot runs it, except that the queue hands over the slot's wakes
// as one batch in no particular order where runSlot scans nodes ascending.
// Only a rationed slot can tell the difference, and there the transmitters
// are sorted first (band.runEvent), so the two drivers return bit-identical
// Metrics.
//
// A band is the nodes of a range of gateway rows. Transmissions contend
// only within a (gateway, SF) group, a foreign draw is keyed on (gateway,
// slot, SF), every other draw hashes (node, slot), and every Metrics field
// is an integer sum, so bands share nothing until the horizon ends: each
// runs with its own calendar, backlog pool, foreign memo, group tables and
// Metrics, and the join adds them up. The one figure that is no sum is
// ActiveSlots, which counts a slot active in two bands once: it is the
// union of the bands' runs of active slots. A slot holds tens of wakes, far
// too few to repay a fan-out and a barrier each (DESIGN.md §15 has the
// measurement); a band needs neither until it ends. The fan-out is one
// exec.Fan over the gateway rows, min(GOMAXPROCS, rows) bands wide — one
// band, on the caller alone, for a single row or a single core.
func runEvent(ctx context.Context, c *core, lp *liveProgress) (*Metrics, error) {
	j := &bandJob{ctx: ctx, c: c, wake: make(chan struct{}, 1)}
	new(exec.Fan).Run(j, c.gwRows)
	m := c.newMetrics()
	for _, b := range j.bands {
		m.add(b.m)
		lp.streamed.add(&b.lp.streamed)
	}
	if j.cause != nil {
		return nil, fmt.Errorf("engine: run canceled mid-drain after %d active slots: %w", m.ActiveSlots, j.cause)
	}
	m.ActiveSlots = activeUnion(j.bands)
	return m, nil
}

// bandJob is an event run as an exec.Job: Start splits the gateway rows
// into one band per participant, index k < len(bands) runs band k and the
// other indices nothing. The caller polls ctx at each of its band's active
// slots, as the run always has, and waits for the helpers' bands watching
// ctx's Done channel after its own; only the caller touches ctx, since a
// context need not be safe for concurrent polls (exec.Job). Helper bands
// read stop.
type bandJob struct {
	ctx   context.Context
	c     *core
	bands []*band
	// stop ends every band before its next active slot. The caller sets it
	// when ctx fires and records ctx's error in cause; a band that panics
	// sets it too, and the Fan raises the panic once every band is back.
	stop  atomic.Bool
	cause error
	// left counts the bands still running; each that returns signals wake.
	left atomic.Int32
	wake chan struct{}
}

func (j *bandJob) Start(w int) {
	rows := j.c.gwRows
	j.bands = make([]*band, w)
	for k := range j.bands {
		j.bands[k] = j.c.newBand(k*rows/w, (k+1)*rows/w, new(liveProgress))
	}
	j.left.Store(int32(w))
}

func (j *bandJob) Stop() bool { return j.stop.Load() }

func (j *bandJob) Run(p, k int) {
	if k < len(j.bands) {
		j.runBand(p, j.bands[k])
	}
	if p == 0 {
		j.await()
	}
}

// runBand runs band b on participant p.
func (j *bandJob) runBand(p int, b *band) {
	returned := false
	defer func() {
		if !returned {
			j.stop.Store(true)
		}
		j.left.Add(-1)
		select {
		case j.wake <- struct{}{}:
		default: // a signal is pending, and await re-reads left after it
		}
	}()
	halt := j.stop.Load
	if p == 0 {
		halt = j.poll
	}
	if !j.stop.Load() {
		b.runEvent(halt)
	}
	returned = true
}

// poll is the caller's halt: the stop flag, then ctx.
func (j *bandJob) poll() bool {
	if j.stop.Load() {
		return true
	}
	if err := j.ctx.Err(); err != nil {
		j.cause = err
		j.stop.Store(true)
		return true
	}
	return false
}

// await keeps the caller on watch until every band has returned or the run
// stops: a context that can fire is watched through its Done channel.
func (j *bandJob) await() {
	done := j.ctx.Done()
	for j.left.Load() > 0 && !j.stop.Load() {
		select {
		case <-j.wake:
		case <-done:
			j.cause = j.ctx.Err()
			j.stop.Store(true)
		}
	}
}

// activeUnion counts the slots in at least one band's active runs, by
// walking every band's ascending runs in order of their first slot.
func activeUnion(bands []*band) int64 {
	next := make([]int, len(bands))
	var n, end int64 // end: every slot before it is counted or in no run
	for {
		k := -1
		for i, b := range bands {
			if next[i] < len(b.active) && (k < 0 || b.active[next[i]].lo < bands[k].active[next[k]].lo) {
				k = i
			}
		}
		if k < 0 {
			return n
		}
		r := bands[k].active[next[k]]
		next[k]++
		if lo := max(int64(r.lo), end); int64(r.hi) > lo {
			n += int64(r.hi) - lo
			end = int64(r.hi)
		}
	}
}

// runEvent drains the band's calendar until the horizon or until halt,
// polled before each active slot, reports true.
func (b *band) runEvent(halt func() bool) {
	c, m := b.core, b.m
	// No wake is ever scheduled at or past Slots, so a window the horizon
	// already fits in never turns: the smaller of the two sizes it. The
	// city's node count, not the band's: a narrower window would turn, and
	// hold the wakes past it in its overflow slice, on horizons the whole
	// city's calendar covers.
	q := NewEventQueue(min(len(c.nodes), c.cfg.Slots))
	// Calendar writes are batched the way the reads are (the gather pass
	// below): a push misses on the bucket head, then on the chunk it names,
	// and between two wakes' draws those misses go out one at a time; in a
	// loop of nothing but pushes some ten overlap. So init draws every first
	// arrival before it schedules any, and reschedule — called for a node
	// whose wake has just popped: after wakeNode, for the genie's deferrals,
	// after finishTx — only lists the node's next wake, pruned of anything
	// past the horizon, for the loop that ends the slot. Every listed wake
	// is for a later slot, so the queue's contract holds as before. The
	// first arrivals are counted as they are drawn, so the calendar's pool
	// is allocated once at the size they fill (EventQueue.reserve).
	var pending []farWake
	reschedule := func(i int32) {
		if w := c.nodes[i].wakeOf(); w >= 0 && w < c.slots {
			pending = append(pending, farWake{w, i})
		}
	}
	for i := b.lo; i < b.hi; i++ {
		if !b.owns(i) {
			continue
		}
		c.initArrivals(i)
		if w := c.nodes[i].nextArrival; w >= 0 {
			q.count(int64(w))
		}
	}
	q.reserve()
	for i := b.lo; i < b.hi; i++ {
		if !b.owns(i) {
			continue
		}
		if w := c.nodes[i].nextArrival; w >= 0 {
			q.Set(i, int64(w))
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
		if halt() {
			return
		}
		if m.ActiveSlots > 0 && m.ActiveSlots%liveFlushInterval == 0 {
			b.lp.flush(m)
		}
		s, ids := q.NextSlot()
		if n := len(b.active); n > 0 && int64(b.active[n-1].hi) == s {
			b.active[n-1].hi++
		} else {
			b.active = append(b.active, slotRun{int32(s), int32(s + 1)})
		}
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
			touched += int64(ns.nextArrival) + int64(ns.sf)
		}
		b.touched = touched
		for _, i := range ids {
			ns := &c.nodes[i]
			if b.wakeNode(ns, i, s, m) {
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
			b.finishTx(ns, i, s, kept && !c.vetoed(i, s, prevK), m)
			reschedule(i)
		}
		for _, w := range pending {
			q.Set(w.id, w.slot)
		}
		pending = pending[:0]
		lastSlot = s
		lastCounts, counts = counts, lastCounts
	}
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
