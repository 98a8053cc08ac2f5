package engine

import (
	"fmt"
	"math"
	"slices"
)

// EventQueue is the engine's priority queue of node wake events: a
// push-only calendar queue over node IDs ordered by slot. The
// engine never moves or cancels a scheduled wake — a node is scheduled
// only after its previous wake popped, and always at a later slot — so
// the queue keeps no per-node state at all: a wake is one int32 in the
// bucket of its slot, and the contract is exactly that narrow. Set(id,
// slot) schedules a node that has no pending wake, at a slot later than
// the last one popped (any slot >= 0 before the first pop); the queue
// cannot see a node scheduled twice, so that is the caller's to uphold.
//
// Wake slots are small integers that only move forward, so the queue keeps
// one bucket per slot over a window of len(bucket) consecutive slots and a
// cursor that walks the window. A bucket is a count and a short list of
// fixed 64-byte chunks of IDs drawn from one pool with a free list: a
// slot's wakes sit in a few contiguous cache lines instead of one linked
// record per node, and scheduling one reads the bucket head and writes one
// ID, with no load from the chunk to wait for.
// Wakes beyond the window wait in one overflow slice; when the window runs
// dry it is re-based on the earliest of them and the ones it now covers
// are bucketed (turn). Memory is therefore the window plus the live wakes,
// whatever the slot values. A new queue whose first wakes are known before
// any is scheduled can count them first (count, reserve), so its pool is
// allocated once at the size they fill rather than grown by append.
//
// Only the slot order is the queue's: within a slot a bucket collects its
// wakes in arrival order, and when the cursor reaches it the whole bucket
// is gathered and handed out as one batch in no particular order
// (NextSlot) — the engine's per-node steps do not read it, and the slots
// where node order can reach a result sort their own transmitters
// (runEvent). PopMin, for callers that want single events in (slot, node)
// order, sorts the batch it draws. FuzzEventQueue pins both against a
// sort-based model.
type EventQueue struct {
	// pool holds every chunk; index 0 is never used, so 0 means "none" in
	// bucket heads and chunk links. free heads the list of released chunks.
	pool []chunk
	free int32
	// bucket[s&mask] is slot s, for s in [base, base+len(bucket)); the
	// length is a power of two.
	bucket  []slotHead
	mask    int64
	over    []farWake // wakes at base+len(bucket) and later
	overMin int64     // the earliest of them, math.MaxInt64 when none
	base    int64     // first slot of the window, a multiple of len(bucket)
	cur     int64     // no bucketed wake is earlier; never past last+1
	last    int64     // the slot last drawn, -1 before the first
	n       int       // scheduled wakes
	near    int       // of those, the ones in buckets
	// batch is the slot last drawn — ascending when PopMin drew it, as
	// gathered when NextSlot did; batch[next:] is still to be handed out.
	batch []int32
	next  int
}

// chunkIDs is how many wakes one chunk holds: with its link a chunk is one
// 64-byte cache line. A measured constant, not a knob: 32-byte chunks of 7
// read 5 % slower on the sparse city (19 wakes a slot over three lines'
// worth of chunks instead of two) and 128-byte chunks of 31 no faster on
// either city (EXPERIMENTS.md, "Engine ledger, round two").
const chunkIDs = 15

type chunk struct {
	ids  [chunkIDs]int32
	next int32
}

// slotHead is one bucket: how many wakes the slot holds and the newest
// chunk of its list. Every chunk behind the head is full, so the count
// alone says where the next ID goes and how many the head chunk holds.
type slotHead struct {
	head int32
	n    int32
}

// farWake is a wake beyond the window.
type farWake struct {
	slot int64
	id   int32
}

// minWindow is the narrowest window NewEventQueue builds. A turn costs a
// pass over the overflow slice, and traffic whose gaps exceed the window
// turns it every few wakes; 16 384 slots — 64 KB of bucket heads — covers
// the gap of a node that reports once a day at LoRaWAN slot lengths.
const minWindow = 1 << 14

// NewEventQueue returns an empty queue over node IDs [0, n). Its window is
// the smallest power of two that is at least n and at least minWindow: at
// n slots or more a turn, O(n) at worst, is no dearer than the cursor's
// own walk across the window.
func NewEventQueue(n int) *EventQueue {
	window := minWindow
	for window < n {
		window <<= 1
	}
	return newEventQueue(window)
}

// newEventQueue builds a queue with a window of the given power-of-two
// length; tests use narrow ones to turn it often.
func newEventQueue(window int) *EventQueue {
	return &EventQueue{
		pool:    make([]chunk, 1),
		bucket:  make([]slotHead, window),
		mask:    int64(window - 1),
		overMin: math.MaxInt64,
		last:    -1,
	}
}

// Len returns the number of scheduled events.
func (q *EventQueue) Len() int { return q.n }

// count notes one wake at slot that a Set after reserve will schedule, on a
// queue nothing has been scheduled on yet. Until reserve the bucket counts
// are tallies with no chunks behind them, so the queue must not be used in
// between.
func (q *EventQueue) count(slot int64) {
	if q.n != 0 {
		panic("engine: EventQueue.count after Set")
	}
	if slot >= 0 && slot-q.base <= q.mask {
		q.bucket[slot&q.mask].n++
	}
}

// reserve ends the counting: it allocates the pool at exactly the chunks
// the counted wakes fill, 1 + Σ ⌈n_b/chunkIDs⌉ over the buckets, and clears
// the tallies. Growing the pool by append instead copies its way through
// about five times its final size, which is most of what a sparse city
// allocates beside its nodes. Wakes beyond the window, bucketed when it
// turns, and later Sets grow the pool with append as before.
func (q *EventQueue) reserve() {
	if q.n != 0 || len(q.pool) != 1 {
		panic("engine: EventQueue.reserve on a used queue")
	}
	need := 1
	for b := range q.bucket {
		need += int(q.bucket[b].n+chunkIDs-1) / chunkIDs
		q.bucket[b].n = 0
	}
	q.pool = make([]chunk, 1, need)
}

// Set schedules node id's wake at slot. The node must have no pending
// wake, and slot must be later than the last slot popped: scheduling into
// the past is a caller bug and panics.
func (q *EventQueue) Set(id int32, slot int64) {
	if slot <= q.last {
		panic(fmt.Sprintf("engine: EventQueue.Set(%d, %d) is not later than slot %d, already popped", id, slot, q.last))
	}
	q.n++
	if slot-q.base > q.mask {
		q.over = append(q.over, farWake{slot, id})
		q.overMin = min(q.overMin, slot)
		return
	}
	q.push(slot, id)
}

// push adds id to the bucket of slot, which the window covers.
func (q *EventQueue) push(slot int64, id int32) {
	q.near++
	b := &q.bucket[slot&q.mask]
	k := b.n % chunkIDs
	if k == 0 {
		c := q.free
		if c != 0 {
			q.free = q.pool[c].next
		} else {
			c = int32(len(q.pool))
			q.pool = append(q.pool, chunk{})
		}
		q.pool[c].next = b.head
		b.head = c
	}
	q.pool[b.head].ids[k] = id
	b.n++
}

// NextSlot removes the earliest scheduled slot and returns it with every
// node waking in it, in no particular order (after PopMin took part of the
// slot: the rest of it). The slice is the queue's and is valid until the
// next NextSlot or PopMin; Set does not disturb it. It panics on an empty
// queue: callers gate on Len.
func (q *EventQueue) NextSlot() (slot int64, ids []int32) {
	if q.next == len(q.batch) {
		q.draw()
	}
	ids = q.batch[q.next:]
	q.next = len(q.batch)
	q.n -= len(ids)
	return q.last, ids
}

// PopMin removes and returns the earliest event; ties pop in ascending
// node order, so a slot it starts on is sorted once, here (NextSlot always
// takes the whole batch, so PopMin never continues one that is not). It
// panics on an empty queue: callers gate on Len.
func (q *EventQueue) PopMin() (id int32, slot int64) {
	if q.next == len(q.batch) {
		q.draw()
		slices.Sort(q.batch)
	}
	id = q.batch[q.next]
	q.next++
	q.n--
	return id, q.last
}

// draw moves the cursor to the earliest scheduled slot, empties that
// bucket into batch and releases its chunks.
func (q *EventQueue) draw() {
	if q.n == 0 {
		panic("engine: pop from an empty EventQueue")
	}
	if q.near == 0 {
		q.turn()
	}
	for q.bucket[q.cur&q.mask].n == 0 {
		q.cur++
	}
	b := &q.bucket[q.cur&q.mask]
	ids := q.batch[:0]
	k := (b.n-1)%chunkIDs + 1
	for c := b.head; c != 0; {
		ch := &q.pool[c]
		ids = append(ids, ch.ids[:k]...)
		k = chunkIDs
		next := ch.next
		ch.next, q.free = q.free, c
		c = next
	}
	*b = slotHead{}
	// No sort: the batch stays as gathered, newest chunk first. Sorting it
	// costs a sixth of a dense city's run (54 wakes a slot, in ~21 ascending
	// runs of 2.6, which no merge beats pdqsort on) to order what nothing
	// reads — runEvent carries the argument.
	q.near -= len(ids)
	q.batch, q.next, q.last = ids, 0, q.cur
}

// turn re-bases an empty window on the earliest overflow wake and buckets
// every overflow wake the new window covers. Only draw turns the window,
// and it pops the slot the window was re-based on at once, so last never
// falls behind base and Set never sees a slot before the window.
func (q *EventQueue) turn() {
	q.base, q.cur = q.overMin&^q.mask, q.overMin
	q.overMin = math.MaxInt64
	keep := q.over[:0]
	for _, w := range q.over {
		if w.slot-q.base > q.mask {
			keep = append(keep, w)
			q.overMin = min(q.overMin, w.slot)
		} else {
			q.push(w.slot, w.id)
		}
	}
	q.over = keep
}
