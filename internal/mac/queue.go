package mac

// This file holds the per-node backlog queue the engine's drivers
// (internal/sim/engine) keep for every client.

// Packet is one queued MAC payload, identified by the slot it arrived in so
// delivery latency can be accounted without any per-packet allocation.
type Packet struct {
	// ArrivalSlot is the simulation slot the packet was generated in.
	ArrivalSlot int
}

// Queue is a head-indexed FIFO of packets: pops advance head instead of
// re-slicing, so the backing array's front capacity is reclaimed (by
// compaction on push, or wholesale when the queue drains) rather than
// leaked — with queue[1:] pops every node would reallocate its queue every
// QueueCap deliveries. The zero value is an empty queue ready for use.
type Queue struct {
	buf  []Packet
	head int
}

// Len returns the backlog length.
func (q *Queue) Len() int { return len(q.buf) - q.head }

// Push enqueues p, compacting the consumed front of the backing array
// before growing it.
func (q *Queue) Push(p Packet) {
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		q.buf = q.buf[:copy(q.buf, q.buf[q.head:])]
		q.head = 0
	}
	q.buf = append(q.buf, p)
}

// Pop dequeues the oldest packet. It panics on an empty queue, mirroring a
// slice index out of range: callers gate on Len.
func (q *Queue) Pop() Packet {
	p := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return p
}

// Peek returns the oldest packet without dequeuing it. Like Pop it panics
// on an empty queue.
func (q *Queue) Peek() Packet { return q.buf[q.head] }
