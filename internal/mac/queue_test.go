package mac

import "testing"

// TestQueueFIFO pins the basic contract: packets come out in arrival order
// and Len tracks the backlog through interleaved pushes and pops.
func TestQueueFIFO(t *testing.T) {
	var q Queue
	if q.Len() != 0 {
		t.Fatalf("zero-value Len = %d", q.Len())
	}
	for i := 0; i < 5; i++ {
		q.Push(Packet{ArrivalSlot: i})
	}
	if q.Len() != 5 {
		t.Fatalf("Len = %d after 5 pushes", q.Len())
	}
	if p := q.Peek(); p.ArrivalSlot != 0 {
		t.Fatalf("Peek = %d, want 0", p.ArrivalSlot)
	}
	for i := 0; i < 5; i++ {
		if p := q.Pop(); p.ArrivalSlot != i {
			t.Fatalf("Pop %d = %d", i, p.ArrivalSlot)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
}

// TestQueueCompactionReclaimsCapacity pins the reason the queue is
// head-indexed: a long push/pop steady state must not grow the backing
// array without bound. After the first compaction cycle the capacity
// stays fixed forever.
func TestQueueCompactionReclaimsCapacity(t *testing.T) {
	var q Queue
	// Build a backlog of 4, then run thousands of push/pop cycles at that
	// steady-state depth.
	for i := 0; i < 4; i++ {
		q.Push(Packet{ArrivalSlot: i})
	}
	stable := -1
	for i := 4; i < 4096; i++ {
		q.Push(Packet{ArrivalSlot: i})
		got := q.Pop()
		if got.ArrivalSlot != i-4 {
			t.Fatalf("cycle %d: Pop = %d, want %d", i, got.ArrivalSlot, i-4)
		}
		if i == 64 {
			stable = cap(q.buf)
		}
		if stable >= 0 && cap(q.buf) > stable {
			t.Fatalf("cycle %d: capacity grew %d -> %d; compaction not reclaiming", i, stable, cap(q.buf))
		}
	}
	if q.Len() != 4 {
		t.Fatalf("steady-state Len = %d, want 4", q.Len())
	}
}
