package engine

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"choir/internal/exec"
	"choir/internal/mac"
)

// run runs c's bands to the horizon and joins them: the event driver's
// bands of gateway rows side by side, or the slot driver's one band of the
// whole city on the caller. A band runs one slot at a time through step,
// whichever driver finds the slot's wakes — its calendar (runEvent) or a
// scan of every node (runSlot).
//
// A band is the nodes of a range of gateway rows. Transmissions contend
// only within a (gateway, SF) group, a foreign draw is keyed on (gateway,
// slot, SF), every other draw hashes (node, slot), and every Metrics field
// is an integer sum, so bands share nothing until the horizon ends: each
// runs with its own calendar, backlog pools, foreign memo, group tables and
// Metrics, and the join adds them up. The one figure that is no sum is
// ActiveSlots, which counts a slot active in two bands once: it is the
// union of the bands' runs of active slots. A slot holds tens of wakes, far
// too few to repay a fan-out and a barrier each (DESIGN.md §15 has the
// measurement); a band needs neither until it ends. The fan-out is one
// exec.Fan over the gateway rows, min(GOMAXPROCS, rows) bands wide — one
// band, on the caller alone, for a single row or a single core.
func run(ctx context.Context, c *core, lp *liveProgress) (*Metrics, error) {
	bands, cause := runBands(ctx, c)
	m := c.newMetrics()
	for _, b := range bands {
		m.add(b.m)
		lp.streamed.add(&b.lp.streamed)
	}
	if cause != nil {
		return nil, fmt.Errorf("engine: run canceled mid-drain after %d active slots: %w", m.ActiveSlots, cause)
	}
	m.ActiveSlots = activeUnion(bands)
	return m, nil
}

// runBands runs c's bands on one exec.Fan and returns them as they ended,
// with the context error that stopped them early, if one did. The slot
// driver's fan-out has one index, so one band.
func runBands(ctx context.Context, c *core) ([]*band, error) {
	j := &bandJob{ctx: ctx, c: c, wake: make(chan struct{}, 1)}
	n := c.gwRows
	if c.cfg.Driver == DriverSlot {
		n = 1
	}
	new(exec.Fan).Run(j, n)
	return j.bands, j.cause
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
	switch {
	case j.stop.Load():
	case j.c.cfg.Driver == DriverSlot:
		b.runSlot(halt)
	default:
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
	c := b.core
	// No wake is ever scheduled at or past Slots, so a window the horizon
	// already fits in never turns: the smaller of the two sizes it. The
	// city's node count, not the band's: a narrower window would turn, and
	// hold the wakes past it in its overflow slice, on horizons the whole
	// city's calendar covers.
	q := NewEventQueue(min(len(c.nodes), c.cfg.Slots))
	// Calendar writes are batched the way the reads are (step's gather
	// pass): a push misses on the bucket head, then on the chunk it names,
	// and between two wakes' draws those misses go out one at a time; in a
	// loop of nothing but pushes some ten overlap. So init draws every first
	// arrival before it schedules any, and step only lists each woken node's
	// next wake (reschedule) for the loop that ends the slot. Every listed
	// wake is for a later slot, so the queue's contract holds. The first
	// arrivals are counted as they are drawn, so the calendar's pool is
	// allocated once at the size they fill (EventQueue.reserve).
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
	for q.Len() > 0 {
		if b.pause(halt) {
			return
		}
		b.step(q.NextSlot())
		for _, w := range b.pending {
			q.Set(w.id, w.slot)
		}
		b.pending = b.pending[:0]
	}
}

// pause is what both drivers do before each active slot: poll halt, and
// stream the band's totals every liveFlushInterval active slots.
func (b *band) pause(halt func() bool) bool {
	if halt() {
		return true
	}
	if m := b.m; m.ActiveSlots > 0 && m.ActiveSlots%liveFlushInterval == 0 {
		b.lp.flush(m)
	}
	return false
}

// step runs slot s, whose wakes are ids: the one slot rule, which both
// drivers run. It wakes the nodes, lets the genie grant the slot under
// SchemeOracle, fixes each (gateway, SF) group's decode probability from
// its count and the slot's foreign draws, and settles every transmission:
// it survives when its decode draw succeeds, fewer than Capacity() of its
// group's earlier transmitters already have, and the unslotted veto spares
// it. Every woken node's next wake is listed in b.pending.
func (b *band) step(s int64, ids []int32) {
	c, m := b.core, b.m
	if n := len(b.active); n > 0 && int64(b.active[n-1].hi) == s {
		b.active[n-1].hi++
	} else {
		b.active = append(b.active, slotRun{int32(s), int32(s + 1)})
	}
	m.ActiveSlots++
	m.Events += int64(len(ids))
	tx, counts := b.tx[:0], b.counts
	counts.reset()
	// Gather, then process: touch every woken record first, in a loop
	// of independent loads, so the slot's cache misses overlap instead
	// of each waiting behind the previous node's resolveChannel and
	// log1p. A 16-byte record never straddles two cache lines
	// (TestNodeStateLayout), so one word of it, nextArrival, pulls in
	// the whole; the sum is stored so the loads are not dead code. The
	// backlog records are not gathered: their pool holds only the
	// nodes with packets, a small share of the city's records. The
	// pass stays only while its own A/B says so: five interleaved
	// pairs with and without it read cpu_us_per_op 0.394 → 0.309 µs on
	// city_sparse (−21.5 %, ahead in 5 of 5) and 0.218 → 0.207 on
	// city_dense (ahead in 4 of 5, no loss) — EXPERIMENTS.md, "Engine
	// ledger, round two".
	var touched int64
	for _, i := range ids {
		touched += int64(c.nodes[i].nextArrival)
	}
	b.touched = touched
	for _, i := range ids {
		ns := &c.nodes[i]
		if b.wakeNode(ns, i, s, m) {
			tx = append(tx, i)
			counts.add(c.groupOf(ns))
		} else {
			b.reschedule(i)
		}
	}
	// Order only what is rationed. The calendar hands over wakes in no
	// particular order, and nothing above or below reads it: wakeNode,
	// decodeDraw, vetoed and finishTx draw from hashes of (node, slot) and
	// touch one node's records; every Metrics field is an integer sum;
	// groupProb is pure in (group, k, slot), whatever order groups are first
	// seen in; and which entry of the backlog pools or the calendar a
	// backlog, a packet or a wake takes is never observable. Node order
	// reaches a result in exactly two places, both rations: the genie grants
	// round-robin over an ascending list, and a group with more transmitters
	// than the receiver's capacity keeps its first Capacity() successes in
	// ascending node order — a group within capacity never finds taken[g] at
	// the cap. So an Oracle slot and a slot with a group above capacity sort
	// their transmitters (not their wakes), and the rest — every slot of a
	// city that stays under MaxConcurrent — sort nothing. The slot driver's
	// scan hands over ascending wakes; TestEventSlotEquivalence holds the
	// two to each other on both arms.
	oracle := c.cfg.Scheme == mac.SchemeOracle
	if oracle || counts.anyAbove(c.capacity) {
		slices.Sort(tx)
	}
	if oracle {
		tx = b.grantOracle(s, tx, counts)
	}

	probs, taken, last := b.probs, b.taken, b.lastCounts
	if c.foreignOn {
		b.fsl.beginSlot()
	}
	for _, g := range counts.groups {
		probs[g] = c.groupProb(&b.fsl, g, counts.k[g], s)
		taken[g] = 0
	}
	m.ForeignTx = b.fsl.total
	prevContig := b.lastSlot == s-1
	for _, i := range tx {
		ns := &c.nodes[i]
		g := c.groupOf(ns)
		kept := false
		if c.decodeDraw(i, s) < probs[g] && taken[g] < c.capacity {
			taken[g]++
			kept = true
		}
		var prevK int32
		if prevContig {
			prevK = last.k[g]
		}
		b.finishTx(ns, i, s, kept && !c.vetoed(i, s, prevK), m)
		b.reschedule(i)
	}
	b.tx = tx
	b.lastSlot = s
	b.lastCounts, b.counts = counts, last
}

// reschedule lists node i's next wake in b.pending, pruned of anything
// past the horizon. A driver calls it only for a node whose wake has just
// come due, so the wake is for a later slot.
func (b *band) reschedule(i int32) {
	if w := b.wakeOf(&b.nodes[i]); w >= 0 && w < b.slots {
		b.pending = append(b.pending, farWake{w, i})
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
