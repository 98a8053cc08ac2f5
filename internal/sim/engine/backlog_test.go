package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"choir/internal/mac"
	"choir/internal/sim"
)

// poolWalk walks one band's pools, claiming each backlog record and packet
// cell for the list that reaches it, and fails the test on an index out of
// range or one that two lists reach.
type poolWalk struct {
	t     *testing.T
	where string
	b     *band
	// rec and cell record who reached each index: 0 no list yet, n+1 node
	// n's, -1 a free list.
	rec, cell []int
}

func newPoolWalk(t *testing.T, where string, b *band) *poolWalk {
	return &poolWalk{t: t, where: where, b: b, rec: make([]int, len(b.backlogs)), cell: make([]int, len(b.cells))}
}

func (w *poolWalk) claim(owner []int, i int32, who int, what string) {
	w.t.Helper()
	if i <= 0 || int(i) >= len(owner) {
		w.t.Fatalf("%s: the list of %d reaches %s %d of %d", w.where, who, what, i, len(owner))
	}
	if owner[i] != 0 {
		w.t.Fatalf("%s: %s %d is on two lists (%d and %d)", w.where, what, i, owner[i], who)
	}
	owner[i] = who
}

// queue claims node n's backlog record and its packets' cells and returns
// the packets' arrival slots, oldest first: none when the node holds no
// record, and a held record must hold a packet.
func (w *poolWalk) queue(n int, ns *nodeState) []int64 {
	w.t.Helper()
	if ns.backlog == 0 {
		return nil
	}
	w.claim(w.rec, ns.backlog, n+1, "backlog record")
	bl := &w.b.backlogs[ns.backlog]
	if bl.qLen == 0 || bl.nextTx < 0 {
		w.t.Fatalf("%s: node %d holds backlog record %d with %d packets and nextTx %d", w.where, n, ns.backlog, bl.qLen, bl.nextTx)
	}
	arrivals := make([]int64, 0, bl.qLen)
	for k, cell := 0, bl.qHead; k < int(bl.qLen); k++ {
		w.claim(w.cell, cell, n+1, "cell")
		arrivals = append(arrivals, int64(w.b.cells[cell].arrival))
		if k == int(bl.qLen)-1 && cell != bl.qTail {
			w.t.Fatalf("%s: node %d list ends at cell %d, qTail %d", w.where, n, cell, bl.qTail)
		}
		cell = w.b.cells[cell].next
	}
	return arrivals
}

// free walks both free lists, after every queue is claimed, and fails on a
// record or cell that no list reaches; it returns how many records are free.
func (w *poolWalk) free() (freeRecords int) {
	w.t.Helper()
	for i := w.b.freeBacklog; i != 0; i = w.b.backlogs[i].qHead {
		w.claim(w.rec, i, -1, "backlog record")
		freeRecords++
	}
	for i := w.b.freeCell; i != 0; i = w.b.cells[i].next {
		w.claim(w.cell, i, -1, "cell")
	}
	for _, pool := range []struct {
		what  string
		owner []int
	}{{"backlog record", w.rec}, {"cell", w.cell}} {
		for i := 1; i < len(pool.owner); i++ {
			if pool.owner[i] == 0 {
				w.t.Fatalf("%s: %s %d of %d is on no list: it leaked", w.where, pool.what, i, len(pool.owner))
			}
		}
	}
	return freeRecords
}

// backlogProgram runs a push/pop program over a few nodes that share one
// band's pools against a plain slice-per-node FIFO, taking and releasing
// backlog records as wakeNode and finishTx do. One operation is two bytes:
// the low bit of the first picks push or pop and the rest of it the node,
// the second is mixed into the arrival slot so equal slots and out-of-order
// slots both occur; slots stay below 2^31, as Validate's Slots limit keeps
// every real arrival. After every operation each node's list is walked: a
// node must hold a record exactly when the model holds packets for it, its
// list must hold the model's arrivals in order and end at qTail, and no
// record or cell may be on two lists or on none; and a pool may only have
// grown when no freed entry was waiting.
func backlogProgram(t *testing.T, program []byte) {
	t.Helper()
	const nodes = 5
	b := &band{backlogs: make([]backlogState, 1), cells: make([]packetCell, 1)}
	var (
		ns    [nodes]nodeState
		model [nodes][]int64
	)
	for i := 0; i+1 < len(program); i += 2 {
		n := int(program[i]>>1) % nodes
		freeBefore, poolBefore := b.freeCell, len(b.cells)
		freeRecBefore, recPoolBefore := b.freeBacklog, len(b.backlogs)
		if program[i]&1 == 0 {
			s := (int64(i)<<8 | int64(program[i+1])) & math.MaxInt32
			took := ns[n].backlog == 0
			if took {
				b.takeBacklog(&ns[n], s)
			}
			b.pushPacket(&b.backlogs[ns[n].backlog], s)
			model[n] = append(model[n], s)
			if grew := len(b.cells) != poolBefore; grew != (freeBefore == 0) {
				t.Fatalf("op %d: push with free head %d grew the pool: %v", i/2, freeBefore, grew)
			}
			if grew := len(b.backlogs) != recPoolBefore; grew != (took && freeRecBefore == 0) {
				t.Fatalf("op %d: push that took a record %v with free head %d grew the record pool: %v", i/2, took, freeRecBefore, grew)
			}
		} else {
			if len(model[n]) == 0 {
				continue
			}
			bl := &b.backlogs[ns[n].backlog]
			if got := b.popPacket(bl); got != model[n][0] {
				t.Fatalf("op %d: node %d popped arrival %d, want %d", i/2, n, got, model[n][0])
			}
			if bl.qLen == 0 {
				b.releaseBacklog(&ns[n])
			}
			model[n] = model[n][1:]
			if len(b.cells) != poolBefore || len(b.backlogs) != recPoolBefore {
				t.Fatalf("op %d: pop changed a pool's length", i/2)
			}
		}

		w := newPoolWalk(t, fmt.Sprintf("op %d", i/2), b)
		for n := range ns {
			if got := w.queue(n, &ns[n]); !slices.Equal(got, model[n]) {
				t.Fatalf("op %d: node %d holds %v (record %d), model %v", i/2, n, got, ns[n].backlog, model[n])
			}
		}
		w.free()
	}
}

// runEventBands runs cfg on the event driver and returns its core, its
// bands as they ended and their summed Metrics (ActiveSlots a sum, not
// runEvent's union), so a test can look at the records a run leaves.
func runEventBands(t *testing.T, cfg Config) (*core, []*band, *Metrics) {
	t.Helper()
	c := newCore(cfg)
	bands, err := runBands(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	m := c.newMetrics()
	for _, b := range bands {
		m.add(b.m)
	}
	return c, bands, m
}

// checkBacklogPools walks every band's pools at the end of a run whose
// joined Metrics are m: a node holds a backlog record exactly when it has
// packets queued, every other record is back on its band's free list, no
// record or cell is on two lists or on none, and the queued packets are the
// arrivals neither delivered nor dropped. It returns how many records are
// held and how many free.
func checkBacklogPools(t *testing.T, name string, c *core, bands []*band, m *Metrics) (held, free int) {
	t.Helper()
	var queued int64
	for k, b := range bands {
		w := newPoolWalk(t, fmt.Sprintf("%s, band %d of %d", name, k, len(bands)), b)
		for i := b.lo; i < b.hi; i++ {
			if !b.owns(i) {
				continue
			}
			if q := w.queue(int(i), &c.nodes[i]); q != nil {
				held++
				queued += int64(len(q))
			}
		}
		free += w.free()
	}
	if want := m.Arrivals - m.Dropped - m.Delivered; queued != want {
		t.Fatalf("%s: %d packets queued at the end, but %d arrivals - %d dropped - %d delivered = %d", name, queued, m.Arrivals, m.Dropped, m.Delivered, want)
	}
	return held, free
}

// TestBacklogRecordsFollowQueues runs the equivalence property's randomized
// configs on the event driver and holds every band's pools to
// checkBacklogPools when the run ends. CI runs it at -cpu 1,2,4, so the
// pools are walked at one, two and four bands. The trials must end with
// records both held and free, or the walk pinned nothing.
func TestBacklogRecordsFollowQueues(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 15
	}
	var held, free int
	rng := rand.New(rand.NewPCG(0xC17E, 0x5CA1E))
	for trial := 0; trial < trials; trial++ {
		c, bands, m := runEventBands(t, randomConfig(rng))
		h, f := checkBacklogPools(t, fmt.Sprintf("trial %d", trial), c, bands, m)
		held, free = held+h, free+f
	}
	if !testing.Short() && (held == 0 || free == 0) {
		t.Fatalf("the %d trials ended with %d records held and %d free: the walk misses one kind", trials, held, free)
	}
}

// TestBacklogMatchesSliceFIFO drives the pooled backlog with random
// programs in three phases — fill, drain, fill again — so the free list is
// long when pushes resume.
func TestBacklogMatchesSliceFIFO(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 7))
	for round := 0; round < 40; round++ {
		program := make([]byte, 2*(50+rng.IntN(300)))
		for i := 0; i < len(program); i += 2 {
			popsOfTen := 3
			if third := len(program) / 3; i >= third && i < 2*third {
				popsOfTen = 7
			}
			op := byte(0)
			if rng.IntN(10) < popsOfTen {
				op = 1
			}
			program[i] = byte(rng.IntN(128))<<1 | op
			program[i+1] = byte(rng.IntN(4))
		}
		backlogProgram(t, program)
	}
}

// FuzzBacklog feeds arbitrary push/pop programs to the pooled backlog.
func FuzzBacklog(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 1, 0, 1, 0, 1, 0})             // one node: fill, drain, pop empty
	f.Add([]byte{0, 9, 2, 9, 4, 9, 1, 0, 3, 0, 6, 9, 0, 9}) // three nodes interleaved, freed cells reused
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 2, 0, 2, 0, 2, 0, 2, 0})
	f.Fuzz(backlogProgram)
}

// TestNodeStateLayout pins what the million-node runs were bought with:
// the record every node keeps is 16 bytes and holds no pointer, so the node
// array is a noscan allocation the collector never walks, and a record
// never straddles two cache lines, which is what lets runEvent's gather pass
// touch one word of it, nextArrival, its first. The backlog record, which
// only a node with packets holds, is at most 16 bytes and pointer-free too;
// a backlog cell is 8 bytes.
func TestNodeStateLayout(t *testing.T) {
	var ns nodeState
	if size := unsafe.Sizeof(ns); size != 16 {
		t.Errorf("nodeState is %d bytes, want 16", size)
	}
	if size := unsafe.Sizeof(backlogState{}); size > 16 {
		t.Errorf("backlogState is %d bytes, want <= 16", size)
	}
	if size := unsafe.Sizeof(packetCell{}); size > 8 {
		t.Errorf("packetCell is %d bytes, want <= 8", size)
	}
	for _, rt := range []reflect.Type{reflect.TypeOf(ns), reflect.TypeOf(backlogState{})} {
		for i := 0; i < rt.NumField(); i++ {
			switch f := rt.Field(i); f.Type.Kind() {
			case reflect.Int8, reflect.Int32, reflect.Int64, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			default:
				t.Errorf("%s.%s is a %v: the record must stay pointer-free plain integers", rt.Name(), f.Name, f.Type)
			}
		}
	}
	if off := unsafe.Offsetof(ns.nextArrival); off != 0 {
		t.Errorf("nextArrival at offset %d: the gather pass reads the first word", off)
	}
	// Go promises a nodeState array 4-byte alignment only; the allocator's
	// size classes give the node array 16, which is what keeps a record on
	// one cache line.
	for _, n := range []int{1, 3, 1000, 200_000} {
		c := newCore(Config{Scheme: mac.SchemeChoir, Nodes: n, Slots: 10, Receiver: mac.AlohaReceiver()})
		if p := uintptr(unsafe.Pointer(&c.nodes[0])); p%16 != 0 {
			t.Errorf("a %d-node city's record array starts at %#x, off a 16-byte boundary", n, p)
		}
	}
}

// TestRunAllocsDoNotScaleWithNodes pins the pooled backlog from outside:
// a run's allocation count is the handful of arrays it sets up plus their
// amortised growth, not one per node that ever backlogs.
func TestRunAllocsDoNotScaleWithNodes(t *testing.T) {
	allocs := func(nodes int) float64 {
		cfg := citySparse50(nodes)
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(20_000), allocs(40_000)
	if diff := large - small; diff >= 16 || diff <= -16 {
		t.Errorf("a run allocates %.0f times at 20 000 nodes and %.0f at 40 000", small, large)
	}
	t.Logf("allocations per run: %.0f at 20 000 nodes, %.0f at 40 000", small, large)
}

// TestRunBytesPerNode pins a run's footprint: the bytes a second Run of the
// same config allocates (the first warms the heap), per node. The sparse
// city's budget is its 16-byte record, its calendar pool allocated once at
// the size the first arrivals fill, and a little: it read 56.1 B with a
// 48-byte record and a pool grown by append, 30.4 B with a 28-byte record
// and the pool allocated once, 32.3 B at GOMAXPROCS 2 once it ran in bands,
// and 20.3 B there with backlog state in pools of its own. The dense city,
// whose calendar pool grows during the run, read 98.7 B, then 47.0 B, then
// 60.5 B at GOMAXPROCS 2 in bands, and 48.7 B there now; its limit is the
// reading before the split.
func TestRunBytesPerNode(t *testing.T) {
	rx := mac.ModelReceiver{Success: sim.AnalyticChoirTable(30, 0.95, 14), MaxConcurrent: 30}
	for _, tc := range []struct {
		name  string
		cfg   Config
		limit float64
	}{
		{"sparse 200k nodes, 5k slots", Config{
			Scheme: mac.SchemeChoir, Nodes: 200_000, Gateways: 16, Slots: 5_000,
			ArrivalPerSlot: 2e-5, Receiver: rx, Seed: 1,
		}, 26},
		{"dense 50k nodes, 40k slots", Config{
			Scheme: mac.SchemeChoir, Nodes: 50_000, Gateways: 4, Slots: 40_000, ArrivalPerSlot: 1e-3,
			Foreign: []ForeignConfig{{Nodes: 20_000, ArrivalPerSlot: 1e-3}}, Receiver: rx, Seed: 1,
		}, 60.5},
	} {
		mustRun(t, tc.cfg)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mustRun(t, tc.cfg)
		runtime.ReadMemStats(&after)
		perNode := float64(after.TotalAlloc-before.TotalAlloc) / float64(tc.cfg.Nodes)
		if perNode > tc.limit {
			t.Errorf("%s: a run allocates %.1f B per node, want <= %g", tc.name, perNode, tc.limit)
		}
		t.Logf("%s: %.1f B per node", tc.name, perNode)
	}
}
