package mac

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"

	"choir/internal/obs"
)

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

// TestPerTxProbMatchesDecode pins that the order-free SlotSuccess view and
// the sequential Decode view are the same model: over many trials the
// per-transmitter acceptance decisions of DecodeAppend are exactly
// Bernoulli(PerTxProb(k)) draws in transmitter order.
func TestPerTxProbMatchesDecode(t *testing.T) {
	m := ModelReceiver{Success: []float64{1, 0.8, 0.5, 0.25}, MaxConcurrent: 16}
	for k := 1; k <= 8; k++ {
		tx := make([]NodeID, k)
		for i := range tx {
			tx[i] = NodeID(i)
		}
		p := m.PerTxProb(k)
		// Replaying the same PCG stream against PerTxProb must reproduce
		// Decode's accepted set exactly.
		got := m.Decode(tx, rand.New(rand.NewPCG(9, uint64(k))))
		rng := rand.New(rand.NewPCG(9, uint64(k)))
		var want []NodeID
		for _, id := range tx {
			if rng.Float64() < p {
				want = append(want, id)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: Decode kept %d, PerTxProb replay kept %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("k=%d: decoded[%d] = %d, want %d", k, i, got[i], want[i])
			}
		}
	}
	// Beyond-table lookups clamp to the last entry.
	if got := m.PerTxProb(100); got != 0.25 {
		t.Fatalf("PerTxProb(100) = %g, want last entry 0.25", got)
	}
	if got := (AlohaReceiver{}).PerTxProb(1); got != 1 {
		t.Fatalf("aloha PerTxProb(1) = %g", got)
	}
	if got := (AlohaReceiver{}).PerTxProb(2); got != 0 {
		t.Fatalf("aloha PerTxProb(2) = %g", got)
	}
}

// TestRunCtxCancelAccountsExactlyOnce pins the terminal-accounting contract
// the city engine inherits: a canceled run records nothing in obs (no
// partial counters to double-count on retry), a completed run records its
// totals exactly once.
func TestRunCtxCancelAccountsExactlyOnce(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	cfg := Config{
		Scheme: SchemeChoir, Nodes: 16, Slots: 2000, ArrivalPerSlot: 0.5,
		SlotSeconds: 0.1, PacketBits: 96, Seed: 3,
	}
	rx := ModelReceiver{Success: []float64{1, 0.8, 0.5}}

	runs, delivered := obs.NewCounter("mac.runs"), obs.NewCounter("mac.delivered")
	r0, d0 := runs.Value(), delivered.Value()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, cfg, rx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Run err = %v", err)
	}
	if runs.Value() != r0 || delivered.Value() != d0 {
		t.Fatalf("canceled run leaked accounting: runs %d->%d delivered %d->%d",
			r0, runs.Value(), d0, delivered.Value())
	}

	m, err := Run(context.Background(), cfg, rx)
	if err != nil {
		t.Fatal(err)
	}
	if runs.Value() != r0+1 {
		t.Fatalf("completed run recorded %d times", runs.Value()-r0)
	}
	if got := delivered.Value() - d0; got != int64(m.Delivered) {
		t.Fatalf("delivered counter delta %d != metrics %d", got, m.Delivered)
	}
}
