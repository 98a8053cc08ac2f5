package engine

// EventQueue is the engine's priority queue of node wake events: an
// indexed binary min-heap over node IDs 0..n-1 ordered by (slot, node).
// Each node has at most one scheduled wake — rescheduling moves it — so
// the queue is bounded by the node count and a wake change is O(log n)
// with no allocation.
//
// The node tie-break is load-bearing, not cosmetic: popping all events of
// one slot yields strictly ascending node IDs, which is what lets the
// event driver apply the receiver's per-slot capacity cap to "the first k
// transmitters in node order" — the same order the reference driver scans
// — and stay bit-identical to it. FuzzEventQueue pins this ordering
// against a sort-based model.
type EventQueue struct {
	heap []int32 // node IDs, heap-ordered by (slot[id], id)
	pos  []int32 // node ID -> index in heap, -1 when not scheduled
	slot []int64 // node ID -> scheduled wake slot (valid while pos >= 0)
}

// NewEventQueue returns an empty queue over node IDs [0, n).
func NewEventQueue(n int) *EventQueue {
	q := &EventQueue{
		heap: make([]int32, 0, n),
		pos:  make([]int32, n),
		slot: make([]int64, n),
	}
	for i := range q.pos {
		q.pos[i] = -1
	}
	return q
}

// Len returns the number of scheduled events.
func (q *EventQueue) Len() int { return len(q.heap) }

// MinSlot returns the earliest scheduled slot, -1 when empty.
func (q *EventQueue) MinSlot() int64 {
	if len(q.heap) == 0 {
		return -1
	}
	return q.slot[q.heap[0]]
}

// Set schedules node id's wake at slot, replacing any existing wake.
// slot < 0 cancels the node's wake.
func (q *EventQueue) Set(id int32, slot int64) {
	p := q.pos[id]
	if slot < 0 {
		if p >= 0 {
			q.remove(int(p))
		}
		return
	}
	if p < 0 {
		q.slot[id] = slot
		q.pos[id] = int32(len(q.heap))
		q.heap = append(q.heap, id)
		q.up(len(q.heap) - 1)
		return
	}
	q.slot[id] = slot
	if !q.up(int(p)) {
		q.down(int(p))
	}
}

// PopMin removes and returns the earliest event; ties pop in ascending
// node order. It panics on an empty queue: callers gate on Len/MinSlot.
func (q *EventQueue) PopMin() (id int32, slot int64) {
	id = q.heap[0]
	slot = q.slot[id]
	q.remove(0)
	return id, slot
}

// less orders heap entries by (slot, node).
func (q *EventQueue) less(a, b int32) bool {
	sa, sb := q.slot[a], q.slot[b]
	return sa < sb || (sa == sb && a < b)
}

// remove deletes the entry at heap index i.
func (q *EventQueue) remove(i int) {
	last := len(q.heap) - 1
	id := q.heap[i]
	q.pos[id] = -1
	if i != last {
		moved := q.heap[last]
		q.heap[i] = moved
		q.pos[moved] = int32(i)
	}
	q.heap = q.heap[:last]
	if i < last {
		if !q.up(i) {
			q.down(i)
		}
	}
}

// up sifts the entry at index i toward the root; it reports whether the
// entry moved.
func (q *EventQueue) up(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(q.heap[i], q.heap[parent]) {
			break
		}
		q.swap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

// down sifts the entry at index i toward the leaves.
func (q *EventQueue) down(i int) {
	n := len(q.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && q.less(q.heap[right], q.heap[left]) {
			smallest = right
		}
		if !q.less(q.heap[smallest], q.heap[i]) {
			return
		}
		q.swap(i, smallest)
		i = smallest
	}
}

func (q *EventQueue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.pos[q.heap[i]] = int32(i)
	q.pos[q.heap[j]] = int32(j)
}
