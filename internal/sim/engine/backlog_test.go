package engine

import (
	"context"
	"math/rand/v2"
	"reflect"
	"testing"
	"unsafe"
)

// backlogProgram runs a push/pop program over a few nodes that share one
// cell pool against a plain slice-per-node FIFO. One operation is two
// bytes: the low bit of the first picks push or pop and the rest of it the
// node, the second is mixed into the arrival slot so equal slots and
// out-of-order slots both occur. After every operation each node's list is
// walked: it must hold the model's arrivals in order, end at qTail, and
// share no cell with another list or the free list; and the pool may only
// have grown when no freed cell was waiting.
func backlogProgram(t *testing.T, program []byte) {
	t.Helper()
	const nodes = 5
	c := &core{cells: make([]packetCell, 1)}
	var (
		ns    [nodes]nodeState
		model [nodes][]int64
	)
	for i := 0; i+1 < len(program); i += 2 {
		n := int(program[i]>>1) % nodes
		freeBefore, poolBefore := c.freeCell, len(c.cells)
		if program[i]&1 == 0 {
			s := int64(i)<<8 | int64(program[i+1])
			c.pushPacket(&ns[n], s)
			model[n] = append(model[n], s)
			if grew := len(c.cells) != poolBefore; grew != (freeBefore == 0) {
				t.Fatalf("op %d: push with free head %d grew the pool: %v", i/2, freeBefore, grew)
			}
		} else {
			if len(model[n]) == 0 {
				if ns[n].qLen != 0 {
					t.Fatalf("op %d: node %d qLen = %d, model empty", i/2, n, ns[n].qLen)
				}
				continue
			}
			if got := c.popPacket(&ns[n]); got != model[n][0] {
				t.Fatalf("op %d: node %d popped arrival %d, want %d", i/2, n, got, model[n][0])
			}
			model[n] = model[n][1:]
			if len(c.cells) != poolBefore {
				t.Fatalf("op %d: pop changed the pool length", i/2)
			}
		}

		owner := make([]int, len(c.cells)) // 0 unseen, n+1 node n's list, -1 free
		claim := func(cell int32, who int) {
			if cell <= 0 || int(cell) >= len(c.cells) {
				t.Fatalf("op %d: list of %d reaches cell %d of %d", i/2, who, cell, len(c.cells))
			}
			if owner[cell] != 0 {
				t.Fatalf("op %d: cell %d is on two lists (%d and %d)", i/2, cell, owner[cell], who)
			}
			owner[cell] = who
		}
		held := 0
		for n := range ns {
			if int(ns[n].qLen) != len(model[n]) {
				t.Fatalf("op %d: node %d qLen = %d, model %d", i/2, n, ns[n].qLen, len(model[n]))
			}
			cell := ns[n].qHead
			for k, want := range model[n] {
				claim(cell, n+1)
				if got := c.cells[cell].arrival; got != want {
					t.Fatalf("op %d: node %d packet %d arrived at %d, want %d", i/2, n, k, got, want)
				}
				if k == len(model[n])-1 && cell != ns[n].qTail {
					t.Fatalf("op %d: node %d list ends at cell %d, qTail %d", i/2, n, cell, ns[n].qTail)
				}
				cell = c.cells[cell].next
			}
			held += len(model[n])
		}
		free := 0
		for cell := c.freeCell; cell != 0; cell = c.cells[cell].next {
			claim(cell, -1)
			free++
		}
		if held+free != len(c.cells)-1 {
			t.Fatalf("op %d: %d queued + %d free cells, pool holds %d", i/2, held, free, len(c.cells)-1)
		}
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
// the record is at most 48 bytes and holds no pointer, so the node array
// is a noscan allocation the collector never walks, and nextArrival and sf
// are its first and last words, which is what runEvent's gather pass
// relies on to pull in both cache lines of a record that straddles two.
func TestNodeStateLayout(t *testing.T) {
	var ns nodeState
	if size := unsafe.Sizeof(ns); size > 48 {
		t.Errorf("nodeState is %d bytes, want <= 48", size)
	}
	rt := reflect.TypeOf(ns)
	for i := 0; i < rt.NumField(); i++ {
		switch f := rt.Field(i); f.Type.Kind() {
		case reflect.Int8, reflect.Int32, reflect.Int64, reflect.Uint8, reflect.Uint64:
		default:
			t.Errorf("nodeState.%s is a %v: the record must stay pointer-free plain integers", f.Name, f.Type)
		}
	}
	if first, last := unsafe.Offsetof(ns.nextArrival), unsafe.Offsetof(ns.sf); first != 0 || last/8 != (unsafe.Sizeof(ns)-1)/8 {
		t.Errorf("nextArrival at offset %d and sf at %d of %d: the gather pass wants the first and last words", first, last, unsafe.Sizeof(ns))
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
