package engine

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// modelQueue is the sort-based reference the queue is checked against: a
// plain map of scheduled wakes, popped by scanning for the (slot, id)
// minimum.
type modelQueue map[int32]int64

func (m modelQueue) minEntry() (int32, int64, bool) {
	best, bestSlot, found := int32(0), int64(0), false
	for id, s := range m {
		if !found || s < bestSlot || (s == bestSlot && id < best) {
			best, bestSlot, found = id, s, true
		}
	}
	return best, bestSlot, found
}

// checkAgainstModel drains both queues side by side and fails on the
// first divergence in length, min slot, or pop order.
func checkAgainstModel(t *testing.T, q *EventQueue, model modelQueue) {
	t.Helper()
	if q.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", q.Len(), len(model))
	}
	for len(model) > 0 {
		wantID, wantSlot, _ := model.minEntry()
		if ms := q.MinSlot(); ms != wantSlot {
			t.Fatalf("MinSlot = %d, want %d", ms, wantSlot)
		}
		id, slot := q.PopMin()
		if id != wantID || slot != wantSlot {
			t.Fatalf("PopMin = (%d,%d), want (%d,%d)", id, slot, wantID, wantSlot)
		}
		delete(model, id)
	}
	if q.Len() != 0 || q.MinSlot() != -1 {
		t.Fatalf("drained queue: Len=%d MinSlot=%d", q.Len(), q.MinSlot())
	}
}

func TestEventQueueOrdering(t *testing.T) {
	q := NewEventQueue(16)
	model := modelQueue{}
	// Equal slots with interleaved insert order: pops must come back in
	// ascending node order regardless.
	for _, id := range []int32{9, 3, 12, 0, 7} {
		q.Set(id, 5)
		model[id] = 5
	}
	q.Set(4, 2)
	model[4] = 2
	// Reschedule one equal-slot entry forward and one backward.
	q.Set(12, 1)
	model[12] = 1
	q.Set(3, 9)
	model[3] = 9
	// Cancel an entry outright, and cancel a missing one (no-op).
	q.Set(7, -1)
	delete(model, 7)
	q.Set(15, -1)
	checkAgainstModel(t, q, model)
}

func TestEventQueueRandomized(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for round := 0; round < 50; round++ {
		n := 1 + rng.IntN(32)
		q := NewEventQueue(n)
		model := modelQueue{}
		for op := 0; op < 200; op++ {
			id := int32(rng.IntN(n))
			switch rng.IntN(4) {
			case 0, 1: // schedule / reschedule
				s := int64(rng.IntN(50))
				q.Set(id, s)
				model[id] = s
			case 2: // cancel
				q.Set(id, -1)
				delete(model, id)
			default: // pop
				if len(model) == 0 {
					continue
				}
				wantID, wantSlot, _ := model.minEntry()
				gotID, gotSlot := q.PopMin()
				if gotID != wantID || gotSlot != wantSlot {
					t.Fatalf("round %d op %d: PopMin = (%d,%d), want (%d,%d)",
						round, op, gotID, gotSlot, wantID, wantSlot)
				}
				delete(model, wantID)
			}
			if q.Len() != len(model) {
				t.Fatalf("round %d op %d: Len = %d, model %d", round, op, q.Len(), len(model))
			}
		}
		checkAgainstModel(t, q, model)
	}
}

// checkInvariants walks every list of the queue and fails on a broken
// link, a wake in the wrong bucket or on the wrong side of the window, a
// bucketed wake before the cursor, or counters that disagree with the lists.
func checkInvariants(t *testing.T, q *EventQueue) {
	t.Helper()
	walk := func(head int32, visit func(w *wake)) (count int) {
		prev := int32(0)
		for i := head; i != 0; i = q.wakes[i].next {
			w := &q.wakes[i]
			if w.prev != prev {
				t.Fatalf("wake %d: prev = %d, want %d", i-1, w.prev, prev)
			}
			visit(w)
			prev = i
			if count++; count > len(q.wakes) {
				t.Fatalf("list at %d cycles", head)
			}
		}
		return count
	}
	near := 0
	for b, head := range q.bucket {
		near += walk(head, func(w *wake) {
			if w.slot < q.cur || w.slot-q.base > q.mask || w.slot&q.mask != int64(b) {
				t.Fatalf("bucket %d holds slot %d (base %d, cur %d)", b, w.slot, q.base, q.cur)
			}
		})
	}
	far := walk(q.over, func(w *wake) {
		if w.slot-q.base <= q.mask {
			t.Fatalf("overflow holds slot %d inside the window at %d", w.slot, q.base)
		}
	})
	if near != q.near || near+far != q.n {
		t.Fatalf("lists hold %d near + %d far, counters say near %d of %d", near, far, q.near, q.n)
	}
	if q.base&q.mask != 0 || q.cur < q.base || q.cur-q.base > q.mask {
		t.Fatalf("window base %d, cursor %d, mask %#x", q.base, q.cur, q.mask)
	}
}

// TestEventQueuePopEmptyPanics pins the documented contract: callers gate
// PopMin on Len/MinSlot, and a pop that does not is a bug reported at once,
// not a corrupted queue.
func TestEventQueuePopEmptyPanics(t *testing.T) {
	q := NewEventQueue(4)
	q.Set(2, 6)
	q.PopMin()
	defer func() {
		if recover() == nil {
			t.Error("PopMin on an empty queue did not panic")
		}
	}()
	q.PopMin()
}

// TestEventQueueFarSlots pins that memory follows the node count and never
// a slot value: wakes at 1<<40 and at the int64 ceiling cost no allocation
// and no bucket, and still pop in (slot, node) order behind the near ones.
func TestEventQueueFarSlots(t *testing.T) {
	const n = 8
	q := NewEventQueue(n)
	window := len(q.bucket)
	if big := NewEventQueue(minWindow + 1); window != minWindow || len(big.bucket) != 2*minWindow {
		t.Fatalf("window sizing: %d buckets for %d nodes, %d for %d", window, n, len(big.bucket), minWindow+1)
	}
	model := modelQueue{}
	set := func(id int32, s int64) {
		q.Set(id, s)
		model[id] = s
	}
	set(0, 3)
	set(5, math.MaxInt64)
	set(4, 1<<40)
	set(2, 1<<40)
	set(1, math.MaxInt64)
	set(7, int64(window))   // first slot beyond the window
	set(6, int64(window)-1) // last slot inside it
	if allocs := testing.AllocsPerRun(100, func() {
		q.Set(3, 1<<40)
		q.Set(3, math.MaxInt64)
		q.Set(3, -1)
	}); allocs != 0 {
		t.Errorf("far Set allocates %v times", allocs)
	}
	checkInvariants(t, q)
	checkAgainstModel(t, q, model)
	if len(q.bucket) != window || cap(q.ids) > n {
		t.Errorf("after far slots: %d buckets (was %d), sort buffer cap %d", len(q.bucket), window, cap(q.ids))
	}
	// The window now sits at the int64 ceiling; the queue still takes an
	// early wake.
	q.Set(2, 9)
	q.Set(1, math.MaxInt64)
	checkInvariants(t, q)
	checkAgainstModel(t, q, modelQueue{2: 9, 1: math.MaxInt64})
}

// TestEventQueueMidDrain changes the slot that is being popped: the queue
// has already put it in node order, and every kind of Set must keep the
// rest of it — and whatever joins it — popping in node order.
func TestEventQueueMidDrain(t *testing.T) {
	q := NewEventQueue(16)
	model := modelQueue{}
	set := func(id int32, s int64) {
		q.Set(id, s)
		if s < 0 {
			delete(model, id)
		} else {
			model[id] = s
		}
	}
	pop := func() {
		t.Helper()
		wantID, wantSlot, _ := model.minEntry()
		if id, s := q.PopMin(); id != wantID || s != wantSlot {
			t.Fatalf("PopMin = (%d,%d), want (%d,%d)", id, s, wantID, wantSlot)
		}
		delete(model, wantID)
		checkInvariants(t, q)
	}
	for _, id := range []int32{11, 2, 8, 5, 14, 9} {
		set(id, 7)
	}
	set(3, 12)
	pop()      // 2: slot 7 is now being drained
	set(8, -1) // cancel a node waiting in it
	set(9, 20) // move one out of it
	set(12, 7) // join it above the remainder's lowest ...
	set(1, 7)  // ... and below it, below even the node already popped
	pop()      // 1
	set(14, 7) // re-Set to the same slot is a no-op in effect
	set(6, 4)  // earlier than the slot being drained
	set(0, 4)
	pop() // 0 at slot 4
	pop() // 6 at slot 4
	pop() // back in slot 7: 5
	checkAgainstModel(t, q, model)
}

// TestEventQueueWindowTurns runs few nodes over a horizon of many windows:
// reschedule gaps from one slot to three windows keep wakes crossing the
// window edge and the overflow list, through hundreds of turns.
func TestEventQueueWindowTurns(t *testing.T) {
	const n, window = 12, 64
	rng := rand.New(rand.NewPCG(5, 17))
	q := newEventQueue(n, window)
	model := modelQueue{}
	for id := int32(0); id < n; id++ {
		s := rng.Int64N(2 * window)
		q.Set(id, s)
		model[id] = s
	}
	var last int64
	for last < 400*window {
		wantID, wantSlot, _ := model.minEntry()
		id, s := q.PopMin()
		if id != wantID || s != wantSlot {
			t.Fatalf("at slot %d: PopMin = (%d,%d), want (%d,%d)", last, id, s, wantID, wantSlot)
		}
		last = s
		switch rng.IntN(4) {
		case 0: // same-window hop, often into the slot another node holds
			s += 1 + rng.Int64N(4)
		case 1: // exactly one window ahead: the first overflow slot or near it
			s = (s&^(window-1) + window) + rng.Int64N(2)
		default:
			s += 1 + rng.Int64N(3*window)
		}
		q.Set(id, s)
		model[id] = s
		checkInvariants(t, q)
	}
	if q.base < 399*window {
		t.Fatalf("window base %d after reaching slot %d: it did not turn", q.base, last)
	}
	checkAgainstModel(t, q, model)
}

// TestEventQueueSteadyStateZeroAllocs pins the engine's steady state — pop
// the earliest wake, reschedule that node — at zero allocations once the
// sort buffer has grown to the fullest slot.
func TestEventQueueSteadyStateZeroAllocs(t *testing.T) {
	const n = 100_000
	rng := rand.New(rand.NewPCG(3, 9))
	q := NewEventQueue(n)
	for id := int32(0); id < n; id++ {
		q.Set(id, rng.Int64N(1<<12))
	}
	step := func() {
		id, s := q.PopMin()
		q.Set(id, s+1+rng.Int64N(1<<12))
	}
	for i := 0; i < n; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(n, step); allocs != 0 {
		t.Errorf("pop + reschedule allocates %v times per op", allocs)
	}
	if q.Len() != n {
		t.Errorf("Len = %d, want %d", q.Len(), n)
	}
}

// fuzzWindow is the bucket window FuzzEventQueue runs at: narrow, so a
// program of a few dozen operations crosses its edge and turns it often.
const fuzzWindow = 64

// fuzzSlot maps a two-byte operand to a wake slot. The top two bits pick
// where it lands relative to the window: anywhere in the first 256 windows;
// that far past the slot last popped, which is how the engine moves; around
// 1<<40; or down from the int64 ceiling.
func fuzzSlot(lo, hi byte, last int64) int64 {
	v := int64(lo) | int64(hi&0x3f)<<8
	switch hi >> 6 {
	case 0:
		return v
	case 1:
		if last > math.MaxInt64-v {
			return math.MaxInt64
		}
		return last + v
	case 2:
		return (1<<40 - 1<<13) + v
	default:
		return math.MaxInt64 - v
	}
}

// FuzzEventQueue feeds arbitrary push/reschedule/cancel/pop programs to
// the queue and cross-checks every observable against the sort-based
// model. The property under fuzz is total: ordering by (slot, node),
// equal-slot tie-break stability, reschedule correctness in both
// directions and across the window edge, and Len/MinSlot consistency after
// every operation.
func FuzzEventQueue(f *testing.F) {
	// One operation is four bytes: op, node, slot operand (fuzzSlot).
	f.Add([]byte{0, 1, 5, 0, 0, 2, 5, 0, 3, 0, 0, 0, 3, 0, 0, 0})
	f.Add([]byte{0, 7, 200, 0, 1, 7, 3, 0, 2, 7, 0, 0, 3, 0, 0, 0})
	// Window edge: slots 63 and 64, then a pop on either side of the turn.
	f.Add([]byte{0, 3, 63, 0, 0, 4, 64, 0, 3, 0, 0, 0, 3, 0, 0, 0})
	// Overflow only: 1<<40 and the int64 ceiling, popped in order.
	f.Add([]byte{0, 1, 0, 0xa0, 0, 2, 0, 0xc0, 0, 3, 9, 0xa0, 3, 0, 0, 0, 3, 0, 0, 0, 3, 0, 0, 0})
	// Two overflow wakes; the older one, deeper in the list, moves near.
	f.Add([]byte{0, 1, 0, 0xa0, 0, 2, 1, 0xa0, 0, 1, 5, 0, 3, 0, 0, 0, 3, 0, 0, 0})
	// Turn to a far window, then rewind: a wake before the window's base.
	f.Add([]byte{0, 1, 0, 0xa0, 3, 0, 0, 0, 0, 2, 1, 0xa0, 0, 5, 7, 0, 3, 0, 0, 0, 3, 0, 0, 0})
	// Engine-shaped: pop, reschedule past the popped slot by up to 256 windows.
	f.Add([]byte{0, 1, 1, 0, 0, 2, 1, 0, 3, 0, 0, 0, 0, 1, 0xff, 0x7f, 3, 0, 0, 0, 0, 2, 0, 0x44, 3, 0, 0, 0, 3, 0, 0, 0})
	// Mid-drain: three nodes in one slot, pop one, cancel one, add one below.
	f.Add([]byte{0, 5, 9, 0, 0, 7, 9, 0, 0, 9, 9, 0, 3, 0, 0, 0, 2, 7, 0, 0, 0, 1, 9, 0, 3, 0, 0, 0, 3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, program []byte) {
		const n = 24
		q := newEventQueue(n, fuzzWindow)
		model := modelQueue{}
		var last int64
		for i := 0; i+3 < len(program); i += 4 {
			op, id := program[i]%4, int32(program[i+1]%n)
			switch op {
			case 0, 1:
				slot := fuzzSlot(program[i+2], program[i+3], last)
				q.Set(id, slot)
				model[id] = slot
			case 2:
				q.Set(id, -1)
				delete(model, id)
			default:
				if len(model) == 0 {
					if q.Len() != 0 {
						t.Fatalf("model empty, queue has %d", q.Len())
					}
					continue
				}
				wantID, wantSlot, _ := model.minEntry()
				gotID, gotSlot := q.PopMin()
				if gotID != wantID || gotSlot != wantSlot {
					t.Fatalf("PopMin = (%d,%d), want (%d,%d)", gotID, gotSlot, wantID, wantSlot)
				}
				delete(model, wantID)
				last = gotSlot
			}
			checkInvariants(t, q)
			if q.Len() != len(model) {
				t.Fatalf("Len = %d, model %d", q.Len(), len(model))
			}
			wantMin := int64(-1)
			if _, s, ok := model.minEntry(); ok {
				wantMin = s
			}
			if got := q.MinSlot(); got != wantMin {
				t.Fatalf("MinSlot = %d, want %d", got, wantMin)
			}
		}
		// Drain: the survivors must come out in exact (slot, id) order.
		type entry struct {
			id   int32
			slot int64
		}
		var want []entry
		for id, s := range model {
			want = append(want, entry{id, s})
		}
		sort.Slice(want, func(a, b int) bool {
			return want[a].slot < want[b].slot ||
				(want[a].slot == want[b].slot && want[a].id < want[b].id)
		})
		for _, w := range want {
			id, slot := q.PopMin()
			if id != w.id || slot != w.slot {
				t.Fatalf("drain: got (%d,%d), want (%d,%d)", id, slot, w.id, w.slot)
			}
		}
	})
}
