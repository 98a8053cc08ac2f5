package engine

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// MinSlot returns the earliest scheduled slot, -1 when empty. It is a probe
// for the tests: it reads the queue and moves nothing, so checking it after
// every operation cannot steer what it checks.
func (q *EventQueue) MinSlot() int64 {
	switch {
	case q.next < len(q.batch):
		return q.last
	case q.n == 0:
		return -1
	case q.near == 0:
		return q.overMin
	}
	s := q.cur
	for q.bucket[s&q.mask].n == 0 {
		s++
	}
	return s
}

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

// popSlot removes the model's earliest slot and returns it with its nodes
// in ascending order.
func (m modelQueue) popSlot() (int64, []int32) {
	_, slot, _ := m.minEntry()
	var ids []int32
	for id, s := range m {
		if s == slot {
			ids = append(ids, id)
			delete(m, id)
		}
	}
	slices.Sort(ids)
	return slot, ids
}

// checkAgainstModel drains both queues side by side, one event at a time,
// and fails on the first divergence in length, min slot, or PopMin's
// strict (slot, node) order.
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

// checkNextSlot pops one whole slot from both and compares them. NextSlot
// promises the slot's wakes in no particular order, so the batch is held
// to the model as a set: a sorted copy must be the model's ascending list.
func checkNextSlot(t *testing.T, q *EventQueue, model modelQueue) int64 {
	t.Helper()
	wantSlot, wantIDs := model.popSlot()
	slot, ids := q.NextSlot()
	got := slices.Clone(ids)
	slices.Sort(got)
	if slot != wantSlot || !slices.Equal(got, wantIDs) {
		t.Fatalf("NextSlot = (%d, %v), want slot %d holding %v in any order", slot, ids, wantSlot, wantIDs)
	}
	return slot
}

func TestEventQueueOrdering(t *testing.T) {
	q := NewEventQueue(64)
	model := modelQueue{}
	set := func(id int32, s int64) {
		q.Set(id, s)
		model[id] = s
	}
	// Equal slots with interleaved insert order, more of them than one
	// chunk holds: PopMin must serve them in ascending node order regardless.
	for _, id := range []int32{9, 3, 12, 0, 7, 40, 33, 21, 5, 18, 61, 2, 27, 14, 50, 11, 8} {
		set(id, 5)
	}
	set(4, 2)
	set(1, 9)
	checkInvariants(t, q, model)
	if id, s := q.PopMin(); id != 4 || s != 2 {
		t.Fatalf("PopMin = (%d,%d), want (4,2)", id, s)
	}
	delete(model, 4)
	// A slot drained partly one ID at a time and then as a batch: the
	// batch is the rest of it, in whatever order, and wakes scheduled
	// meanwhile do not join.
	for _, want := range []int32{0, 2, 3} {
		if id, s := q.PopMin(); id != want || s != 5 {
			t.Fatalf("PopMin = (%d,%d), want (%d,5)", id, s, want)
		}
		delete(model, want)
		set(want, 6+int64(want))
		checkInvariants(t, q, model)
	}
	if q.MinSlot() != 5 {
		t.Fatalf("MinSlot = %d mid-slot, want 5", q.MinSlot())
	}
	checkNextSlot(t, q, model)
	checkInvariants(t, q, model)
	checkAgainstModel(t, q, model)
}

func TestEventQueueRandomized(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for round := 0; round < 50; round++ {
		n := 1 + rng.IntN(32)
		q := NewEventQueue(n)
		model := modelQueue{}
		last := int64(-1)
		for op := 0; op < 200; op++ {
			switch rng.IntN(4) {
			case 0, 1: // schedule a node that has no wake, later than the last pop
				id := int32(rng.IntN(n))
				if _, scheduled := model[id]; scheduled {
					continue
				}
				s := last + 1 + int64(rng.IntN(50))
				q.Set(id, s)
				model[id] = s
			case 2: // pop one
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
				last = gotSlot
			default: // pop a whole slot
				if len(model) == 0 {
					continue
				}
				last = checkNextSlot(t, q, model)
			}
			if q.Len() != len(model) {
				t.Fatalf("round %d op %d: Len = %d, model %d", round, op, q.Len(), len(model))
			}
		}
		checkInvariants(t, q, model)
		checkAgainstModel(t, q, model)
	}
}

// checkInvariants walks every chunk of the queue against the model of what
// is scheduled and fails on an ID held twice or not scheduled at all — the
// queue keeps no per-node state, so this walk is where a double-scheduled
// node is caught — on an ID in the wrong bucket or on the wrong side of
// the window, a bucketed wake before the cursor, a bucket whose count and
// chunk list disagree, a chunk that is neither in a bucket nor free, or
// counters that disagree with the lists.
func checkInvariants(t *testing.T, q *EventQueue, model modelQueue) {
	t.Helper()
	seen := map[int32]bool{}
	see := func(id int32, slot int64, where string) {
		if seen[id] {
			t.Fatalf("node %d is held twice (second time in %s)", id, where)
		}
		seen[id] = true
		if want, ok := model[id]; !ok || want != slot {
			t.Fatalf("%s holds node %d at slot %d, model says %d (scheduled: %v)", where, id, slot, want, ok)
		}
	}
	live, near := 0, 0
	for b, sh := range q.bucket {
		if (sh.head == 0) != (sh.n == 0) {
			t.Fatalf("bucket %d: head chunk %d with %d wakes", b, sh.head, sh.n)
		}
		// The head chunk holds what the full chunks behind it leave over.
		left := int(sh.n)
		for c, k := sh.head, (int(sh.n)-1)%chunkIDs+1; c != 0; c, k = q.pool[c].next, chunkIDs {
			if live++; live >= len(q.pool) {
				t.Fatalf("bucket %d: chunk list cycles", b)
			}
			if left -= k; left < 0 {
				t.Fatalf("bucket %d: more chunks than its %d wakes fill", b, sh.n)
			}
			for _, id := range q.pool[c].ids[:k] {
				s := model[id]
				if s < q.cur || s < q.base || s-q.base > q.mask || s&q.mask != int64(b) {
					t.Fatalf("bucket %d holds node %d of slot %d (base %d, cur %d)", b, id, s, q.base, q.cur)
				}
				see(id, s, "a bucket")
				near++
			}
		}
		if left != 0 {
			t.Fatalf("bucket %d: %d of its %d wakes are in no chunk", b, left, sh.n)
		}
	}
	overMin := int64(math.MaxInt64)
	for _, w := range q.over {
		if w.slot-q.base <= q.mask {
			t.Fatalf("overflow holds slot %d inside the window at %d", w.slot, q.base)
		}
		see(w.id, w.slot, "overflow")
		overMin = min(overMin, w.slot)
	}
	if overMin != q.overMin {
		t.Fatalf("overMin = %d, overflow's earliest is %d", q.overMin, overMin)
	}
	rest := q.batch[q.next:]
	for _, id := range rest {
		see(id, q.last, "the drawn batch")
	}
	if near != q.near || near+len(q.over)+len(rest) != q.n || q.n != len(model) {
		t.Fatalf("%d near + %d far + %d drawn, counters say near %d of %d, model has %d",
			near, len(q.over), len(rest), q.near, q.n, len(model))
	}
	free := 0
	for c := q.free; c != 0; c = q.pool[c].next {
		if free++; free >= len(q.pool) {
			t.Fatal("free list cycles")
		}
	}
	if live+free != len(q.pool)-1 {
		t.Fatalf("%d live + %d free chunks, pool holds %d", live, free, len(q.pool)-1)
	}
	if q.base&q.mask != 0 || q.cur < q.base || q.cur-q.base > q.mask || q.last > q.cur || q.cur-1 > q.last {
		t.Fatalf("window base %d, cursor %d, last %d, mask %#x", q.base, q.cur, q.last, q.mask)
	}
}

// TestEventQueuePopEmptyPanics pins the documented contract: callers gate
// pops on Len, and a pop that does not is a bug reported at once,
// not a corrupted queue.
func TestEventQueuePopEmptyPanics(t *testing.T) {
	q := NewEventQueue(4)
	q.Set(2, 6)
	q.PopMin()
	for name, pop := range map[string]func(){
		"PopMin":   func() { q.PopMin() },
		"NextSlot": func() { q.NextSlot() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an empty queue did not panic", name)
				}
			}()
			pop()
		}()
	}
}

// TestEventQueueSetIntoThePastPanics pins the other edge of the contract:
// a wake at or before the slot last popped can never come out in order, so
// it is refused at once. Before the first pop every slot >= 0 is the future.
func TestEventQueueSetIntoThePastPanics(t *testing.T) {
	q := NewEventQueue(4)
	q.Set(2, 6)
	q.Set(1, 0)
	q.Set(0, 3)
	for want := int64(0); want <= 6; want += 3 {
		if _, s := q.PopMin(); s != want {
			t.Fatalf("popped slot %d, want %d", s, want)
		}
	}
	for _, slot := range []int64{6, 5, 0, -1, math.MinInt64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set at slot %d after popping slot 6 did not panic", slot)
				}
			}()
			q.Set(3, slot)
		}()
	}
	q.Set(3, 7)
	checkAgainstModel(t, q, modelQueue{3: 7})
}

// TestEventQueueFarSlots pins that memory follows the live wakes and the
// window and never a slot value: 4 bytes per window slot of bucket heads,
// fixed; one 64-byte chunk per non-empty bucket and per chunkIDs wakes in
// it, so never more chunks than live wakes, and a released chunk is reused
// before the pool grows; 16 bytes per overflow wake at the overflow
// slice's amortised capacity. Wakes at 1<<40 and at the int64 ceiling cost
// no bucket, and still pop in (slot, node) order behind the near ones.
func TestEventQueueFarSlots(t *testing.T) {
	const n = 8
	q := NewEventQueue(n)
	window := len(q.bucket)
	if big := NewEventQueue(minWindow + 1); window != minWindow || len(big.bucket) != 2*minWindow {
		t.Fatalf("window sizing: %d buckets for %d nodes, %d for %d", window, n, len(big.bucket), minWindow+1)
	}

	// One node hopping 1<<40 slots at a time: every hop goes through the
	// overflow slice and turns the window, on one chunk and no allocation.
	var at int64
	hop := func() {
		at += 1 << 40
		q.Set(3, at)
		if id, s := q.PopMin(); id != 3 || s != at {
			t.Fatalf("PopMin = (%d,%d), want (3,%d)", id, s, at)
		}
	}
	hop()
	if allocs := testing.AllocsPerRun(100, hop); allocs != 0 {
		t.Errorf("a far Set and its pop allocate %v times", allocs)
	}
	if len(q.pool)-1 != 1 || cap(q.over) > 4 {
		t.Errorf("after %d far hops of one node: %d chunks, overflow capacity %d", at>>40, len(q.pool)-1, cap(q.over))
	}

	model := modelQueue{}
	set := func(id int32, s int64) {
		q.Set(id, s)
		model[id] = s
	}
	set(0, at+3)
	set(5, math.MaxInt64)
	set(4, at+1<<40)
	set(2, at+1<<40)
	set(1, math.MaxInt64)
	set(7, at+int64(window))   // first slot beyond the window
	set(6, at+int64(window)-1) // last slot inside it
	checkInvariants(t, q, model)
	if len(q.over) != 5 {
		t.Errorf("%d overflow wakes, want 5", len(q.over))
	}
	checkAgainstModel(t, q, model)
	if len(q.bucket) != window || len(q.pool)-1 > n || cap(q.over) > 8 || cap(q.batch) > n {
		t.Errorf("after far slots: %d buckets (was %d), %d chunks, overflow capacity %d, batch capacity %d",
			len(q.bucket), window, len(q.pool)-1, cap(q.over), cap(q.batch))
	}
}

// TestEventQueueWindowTurns runs few nodes over a horizon of many windows:
// reschedule gaps from one slot to three windows keep wakes crossing the
// window edge and the overflow slice, through hundreds of turns.
func TestEventQueueWindowTurns(t *testing.T) {
	const n, window = 12, 64
	rng := rand.New(rand.NewPCG(5, 17))
	q := newEventQueue(window)
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
		checkInvariants(t, q, model)
	}
	if q.base < 399*window {
		t.Fatalf("window base %d after reaching slot %d: it did not turn", q.base, last)
	}
	if len(q.pool)-1 > n {
		t.Fatalf("%d chunks for %d nodes: released chunks are not reused", len(q.pool)-1, n)
	}
	checkAgainstModel(t, q, model)
}

// TestEventQueueSteadyStateZeroAllocs pins the engine's steady state — pop
// the earliest wake, reschedule that node — at zero allocations once the
// chunk pool and the batch buffer have grown to the fullest the run gets.
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

// FuzzEventQueue feeds arbitrary push/pop-one/pop-a-slot programs to the
// queue and cross-checks every observable against the sort-based model.
// The property under fuzz is everything the narrowed contract promises:
// slots in ascending order however they are popped; within a slot, strict
// ascending node order from PopMin and exactly the slot's set of nodes, in
// any order, from NextSlot — also for a slot taken part one way and the
// rest the other; pushes inside, at the edge of and far beyond the window;
// the chunk and free-list structure; and Len/MinSlot consistency after
// every operation. When the first op byte has bit 2 set, the pushes before
// the first pop go through the counted init instead (count each, reserve,
// then Set each), which must leave the same queue with a pool that is
// exactly full.
func FuzzEventQueue(f *testing.F) {
	// One operation is four bytes: op (0, 1 push; 2 pop one; 3 pop a
	// slot; bit 2 of the first op: counted init), node, slot operand
	// (fuzzSlot).
	f.Add([]byte{0, 1, 5, 0, 0, 2, 5, 0, 2, 0, 0, 0, 2, 0, 0, 0})
	f.Add([]byte{0, 7, 200, 0, 1, 3, 3, 0, 3, 0, 0, 0, 3, 0, 0, 0})
	// Window edge: slots 63 and 64, then a pop on either side of the turn.
	f.Add([]byte{0, 3, 63, 0, 0, 4, 64, 0, 2, 0, 0, 0, 2, 0, 0, 0})
	// Overflow only: 1<<40 twice and the int64 ceiling, popped in order.
	f.Add([]byte{0, 1, 0, 0xa0, 0, 2, 0, 0xc0, 0, 3, 0, 0xa0, 3, 0, 0, 0, 3, 0, 0, 0})
	// A near wake scheduled while only far ones wait, after MinSlot has
	// looked past the empty window: it still lands in the window.
	f.Add([]byte{0, 1, 0, 0xa0, 0, 2, 1, 0xa0, 0, 5, 7, 0, 2, 0, 0, 0, 2, 0, 0, 0})
	// Turn to a far window, then schedule just past the popped slot and at
	// the ceiling.
	f.Add([]byte{0, 1, 0, 0xa0, 2, 0, 0, 0, 0, 2, 1, 0x40, 0, 5, 0, 0xc0, 3, 0, 0, 0, 3, 0, 0, 0})
	// Engine-shaped: pop, reschedule past the popped slot by up to 256 windows.
	f.Add([]byte{0, 1, 1, 0, 0, 2, 1, 0, 2, 0, 0, 0, 0, 1, 0xff, 0x7f, 2, 0, 0, 0, 0, 2, 0, 0x44, 3, 0, 0, 0, 3, 0, 0, 0})
	// One slot drained both ways: four nodes in it, pop one, schedule that
	// node again later, pop the rest as a batch.
	f.Add([]byte{0, 5, 9, 0, 0, 7, 9, 0, 0, 9, 9, 0, 0, 1, 9, 0, 2, 0, 0, 0, 0, 1, 3, 0x40, 3, 0, 0, 0, 3, 0, 0, 0})
	// More wakes in one slot than a chunk holds, pushed descending.
	f.Add([]byte{
		0, 23, 9, 0, 0, 22, 9, 0, 0, 21, 9, 0, 0, 20, 9, 0, 0, 19, 9, 0, 0, 18, 9, 0, 0, 17, 9, 0, 0, 16, 9, 0,
		0, 15, 9, 0, 0, 14, 9, 0, 0, 13, 9, 0, 0, 12, 9, 0, 0, 11, 9, 0, 0, 10, 9, 0, 0, 9, 9, 0, 0, 8, 9, 0,
		2, 0, 0, 0, 3, 0, 0, 0,
	})
	// Counted init: 17 wakes in one slot (two chunks), one at the window's
	// last slot, one beyond it and one at 1<<40, then pops and a Set that
	// grows the exactly-full pool.
	f.Add([]byte{
		4, 23, 9, 0, 0, 22, 9, 0, 0, 21, 9, 0, 0, 20, 9, 0, 0, 19, 9, 0, 0, 18, 9, 0, 0, 17, 9, 0, 0, 16, 9, 0,
		0, 15, 9, 0, 0, 14, 9, 0, 0, 13, 9, 0, 0, 12, 9, 0, 0, 11, 9, 0, 0, 10, 9, 0, 0, 9, 9, 0, 0, 8, 9, 0,
		0, 1, 63, 0, 0, 2, 64, 0, 0, 3, 0, 0xa0, 2, 0, 0, 0, 0, 4, 12, 0, 3, 0, 0, 0, 3, 0, 0, 0,
	})
	// Counted init of far wakes only, and of a single wake.
	f.Add([]byte{4, 1, 0, 0xa0, 0, 2, 0, 0xc0, 3, 0, 0, 0, 0, 3, 5, 0x40, 3, 0, 0, 0})
	f.Add([]byte{5, 7, 0, 0, 3, 0, 0, 0, 0, 7, 1, 0, 2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, program []byte) {
		const n = 24
		q := newEventQueue(fuzzWindow)
		model := modelQueue{}
		last := int64(-1)
		// counted holds the leading pushes of a counted-init program until
		// its first pop, or its end, schedules them.
		counted := len(program) > 0 && program[0]&4 != 0
		var first []int32
		scheduleFirst := func() {
			if !counted {
				return
			}
			counted = false
			need := 1
			perBucket := map[int64]int{}
			for _, id := range first {
				q.count(model[id])
				if model[id] < fuzzWindow {
					perBucket[model[id]]++
				}
			}
			for _, k := range perBucket {
				need += (k + chunkIDs - 1) / chunkIDs
			}
			q.reserve()
			for _, id := range first {
				q.Set(id, model[id])
			}
			if len(q.pool) != need || cap(q.pool) != need {
				t.Fatalf("counted init of %d wakes: pool %d of capacity %d, want exactly %d", len(first), len(q.pool), cap(q.pool), need)
			}
		}
		for i := 0; i+3 < len(program); i += 4 {
			op, id := program[i]%4, int32(program[i+1]%n)
			if op > 1 {
				scheduleFirst()
			}
			switch {
			case op <= 1:
				// The next node the model says has no wake, at a slot
				// clamped to later than the last pop.
				scheduled := true
				for k := 0; k < n && scheduled; k++ {
					if _, scheduled = model[id]; scheduled {
						id = (id + 1) % n
					}
				}
				if scheduled || last == math.MaxInt64 {
					continue
				}
				slot := max(fuzzSlot(program[i+2], program[i+3], last), last+1)
				model[id] = slot
				if counted {
					first = append(first, id)
					continue
				}
				q.Set(id, slot)
			case len(model) == 0:
				if q.Len() != 0 {
					t.Fatalf("model empty, queue has %d", q.Len())
				}
				continue
			case op == 2:
				wantID, wantSlot, _ := model.minEntry()
				gotID, gotSlot := q.PopMin()
				if gotID != wantID || gotSlot != wantSlot {
					t.Fatalf("PopMin = (%d,%d), want (%d,%d)", gotID, gotSlot, wantID, wantSlot)
				}
				delete(model, wantID)
				last = gotSlot
			default:
				last = checkNextSlot(t, q, model)
			}
			checkInvariants(t, q, model)
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
		scheduleFirst()
		// Drain: the survivors must come out in exact (slot, id) order.
		checkInvariants(t, q, model)
		checkAgainstModel(t, q, model)
	})
}
