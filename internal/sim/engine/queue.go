package engine

import (
	"math"
	"slices"
)

// EventQueue is the engine's priority queue of node wake events: a
// calendar queue over node IDs 0..n-1 ordered by (slot, node). Each node
// has at most one scheduled wake — rescheduling moves it — so the queue is
// bounded by the node count, and scheduling, moving and cancelling a wake
// are O(1) with no allocation.
//
// Wake slots are small integers that only move forward, so the queue keeps
// one bucket per slot over a window of len(bucket) consecutive slots, each
// bucket an intrusive doubly-linked list threaded through wakes, and a
// cursor that walks the window. Wakes beyond the window wait in one
// overflow list; when the window runs dry it is re-based on the earliest
// of them and the ones it now covers are bucketed (turn). Memory is
// therefore the node count plus the window, whatever the slot values.
//
// The node tie-break is load-bearing, not cosmetic: popping all events of
// one slot yields strictly ascending node IDs, which is what lets the
// event driver apply the receiver's per-slot capacity cap to "the first k
// transmitters in node order" — the same order the reference driver scans
// — and stay bit-identical to it. A bucket collects its wakes in arrival
// order; the cursor sorts it by node when it gets there. FuzzEventQueue
// pins this ordering against a sort-based model.
type EventQueue struct {
	// wakes[id+1] is node id's wake; links hold such indices, and index 0
	// is a sentinel that stands for "none" and absorbs the writes a list
	// end would otherwise need a branch for.
	wakes []wake
	// bucket[s&mask] heads the list of wakes at slot s, for s in
	// [base, base+len(bucket)); the length is a power of two.
	bucket []int32
	mask   int64
	over   int32   // head of the overflow list: wakes at base+len(bucket) and later
	base   int64   // first slot of the window, a multiple of len(bucket)
	cur    int64   // no bucketed wake is earlier; base <= cur < base+len(bucket)
	sorted bool    // the bucket at cur is in ascending node order
	n      int     // scheduled wakes
	near   int     // of those, the ones in buckets
	ids    []int32 // seek's sort buffer
}

type wake struct {
	slot       int64 // -1 when not scheduled
	next, prev int32
}

// minWindow is the narrowest window NewEventQueue builds. A turn costs a
// pass over the overflow list, and traffic whose gaps exceed the window
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
	return newEventQueue(n, window)
}

// newEventQueue builds a queue with a window of the given power-of-two
// length; tests use narrow ones to turn it often.
func newEventQueue(n, window int) *EventQueue {
	q := &EventQueue{
		wakes:  make([]wake, n+1),
		bucket: make([]int32, window),
		mask:   int64(window - 1),
	}
	for i := range q.wakes {
		q.wakes[i].slot = -1
	}
	return q
}

// Len returns the number of scheduled events.
func (q *EventQueue) Len() int { return q.n }

// MinSlot returns the earliest scheduled slot, -1 when empty.
func (q *EventQueue) MinSlot() int64 {
	if q.n == 0 {
		return -1
	}
	if !q.sorted || q.bucket[q.cur&q.mask] == 0 {
		q.seek()
	}
	return q.cur
}

// Set schedules node id's wake at slot, replacing any existing wake.
// slot < 0 cancels the node's wake.
func (q *EventQueue) Set(id int32, slot int64) {
	i := id + 1
	w := &q.wakes[i]
	if w.slot >= 0 {
		q.n--
		if w.slot-q.base > q.mask {
			q.unlink(&q.over, i)
		} else {
			q.near--
			q.unlink(&q.bucket[w.slot&q.mask], i)
		}
	}
	if slot < 0 {
		w.slot = -1
		return
	}
	w.slot = slot
	q.n++
	if slot < q.base {
		q.rewind(slot)
	}
	if slot-q.base > q.mask {
		q.link(&q.over, i)
		return
	}
	if slot <= q.cur {
		// Earlier than the cursor, or into the bucket it is draining:
		// either way that bucket is to be sorted (again) before it pops.
		q.cur, q.sorted = slot, false
	}
	q.near++
	q.link(&q.bucket[slot&q.mask], i)
}

// PopMin removes and returns the earliest event; ties pop in ascending
// node order. It panics on an empty queue: callers gate on Len/MinSlot.
func (q *EventQueue) PopMin() (id int32, slot int64) {
	slot = q.MinSlot()
	if slot < 0 {
		panic("engine: PopMin on an empty EventQueue")
	}
	head := &q.bucket[slot&q.mask]
	i := *head
	w := &q.wakes[i]
	*head = w.next
	q.wakes[w.next].prev = 0
	w.slot = -1
	q.n--
	q.near--
	return i - 1, slot
}

// link pushes wake i on the front of the list at head.
func (q *EventQueue) link(head *int32, i int32) {
	w := &q.wakes[i]
	w.next, w.prev = *head, 0
	q.wakes[*head].prev = i
	*head = i
}

// unlink removes wake i from the list at head.
func (q *EventQueue) unlink(head *int32, i int32) {
	w := &q.wakes[i]
	q.wakes[w.next].prev = w.prev
	if w.prev != 0 {
		q.wakes[w.prev].next = w.next
	} else {
		*head = w.next
	}
}

// seek moves the cursor to the earliest scheduled slot and puts that
// bucket in ascending node order. The queue must not be empty.
func (q *EventQueue) seek() {
	if q.near == 0 {
		q.turn()
	}
	for q.bucket[q.cur&q.mask] == 0 {
		q.cur++
	}
	q.sorted = true
	head := &q.bucket[q.cur&q.mask]
	ids := q.ids[:0]
	for i := *head; i != 0; i = q.wakes[i].next {
		ids = append(ids, i)
	}
	q.ids = ids
	if len(ids) == 1 {
		return
	}
	slices.Sort(ids)
	*head = 0
	for k := len(ids) - 1; k >= 0; k-- {
		q.link(head, ids[k])
	}
}

// turn re-bases an empty window on the earliest overflow wake and buckets
// every overflow wake the new window covers.
func (q *EventQueue) turn() {
	first := int64(math.MaxInt64)
	for i := q.over; i != 0; i = q.wakes[i].next {
		first = min(first, q.wakes[i].slot)
	}
	q.base, q.cur = first&^q.mask, first
	for i := q.over; i != 0; {
		w := &q.wakes[i]
		next := w.next
		if w.slot-q.base <= q.mask {
			q.unlink(&q.over, i)
			q.link(&q.bucket[w.slot&q.mask], i)
			q.near++
		}
		i = next
	}
}

// rewind moves the window back to cover slot, which lies before it: every
// bucketed wake is then beyond the new window and joins the overflow list.
// The engine never schedules into the past; this keeps Set total.
func (q *EventQueue) rewind(slot int64) {
	for b := range q.bucket {
		for i := q.bucket[b]; i != 0; {
			next := q.wakes[i].next
			q.link(&q.over, i)
			i = next
		}
		q.bucket[b] = 0
	}
	q.near = 0
	q.base, q.cur, q.sorted = slot&^q.mask, slot, false
}
