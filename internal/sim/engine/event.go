package engine

import (
	"context"
	"fmt"

	"choir/internal/exec"
	"choir/internal/mac"
	"choir/internal/obs"
)

// shardState is one spatial partition's private working set: its event
// queue, its slice of this slot's transmitters, and its metric deltas.
// Shards own contiguous node-ID ranges (the grid layout is row-major, so a
// range is a horizontal band of the city) and never touch each other's
// nodes, so every phase below fans out without locks.
type shardState struct {
	q     *EventQueue
	base  int32 // first global node ID of the range
	m     Metrics
	tx    []int32 // this slot's transmitters, ascending global node IDs
	bern  []bool  // per-tx tentative Bernoulli outcome (slow path only)
	count map[uint32]int32
	tent  map[uint32]int32
	grant map[uint32]int32
	taken map[uint32]int32
}

// reschedule re-queues node i's next wake after its state changed,
// pruning wakes beyond the horizon.
func (sh *shardState) reschedule(c *core, i int32) {
	w := c.nodes[i].wakeOf()
	if w >= c.slots {
		w = -1
	}
	sh.q.Set(i-sh.base, w)
}

// runEvent is the production driver: per-shard event queues advance
// straight to the next slot with work, and each slot runs as parallel
// phases over the shards with two serial merge points (transmitter counts
// in, capacity grants out). Every random decision is keyed on (node,
// slot), never on a shard or worker index, so the shard partition and
// pool width cannot reorder draws — runSlot and runEvent return
// bit-identical Metrics for any Shards/Workers.
func runEvent(ctx context.Context, c *core, lp *liveProgress) (*Metrics, error) {
	nShards := c.cfg.Shards
	nodes := c.cfg.Nodes
	pool := exec.NewPool(c.cfg.Workers)

	// Every phase below fans out under the run's ctx. A fan-out cut short
	// leaves its slot half-applied, so its error abandons the run: the
	// caller gets the cancellation and no metrics.
	activeSlots := int64(0)
	canceled := func(err error) (*Metrics, error) {
		return nil, fmt.Errorf("engine: run canceled mid-drain after %d active slots: %w", activeSlots, err)
	}

	shards := make([]shardState, nShards)
	err := pool.ForEach(ctx, nShards, func(si int) {
		sh := &shards[si]
		sh.base = int32(si * nodes / nShards)
		end := int32((si + 1) * nodes / nShards)
		sh.q = NewEventQueue(int(end - sh.base))
		sh.count = map[uint32]int32{}
		sh.tent = map[uint32]int32{}
		sh.grant = map[uint32]int32{}
		sh.taken = map[uint32]int32{}
		for i := sh.base; i < end; i++ {
			c.initArrivals(i)
			if w := c.nodes[i].wakeOf(); w >= 0 && w < c.slots {
				sh.q.Set(i-sh.base, w)
			}
		}
	})
	if err != nil {
		return canceled(err)
	}

	// Oracle only: every shard's transmitter list as grantOracle's runs, and
	// the re-queue of a node the genie deferred.
	oracle := c.cfg.Scheme == mac.SchemeOracle
	var (
		txRuns  []*[]int32
		requeue func(si int, i int32)
	)
	if oracle {
		for si := range shards {
			txRuns = append(txRuns, &shards[si].tx)
		}
		requeue = func(si int, i int32) { shards[si].reschedule(c, i) }
	}

	var (
		totalK     = map[uint32]int32{}
		lastCounts = map[uint32]int32{}
		probs      = map[uint32]float64{}
		lastSlot   = int64(-2)
		fsl        foreignSlot
	)
	for {
		// The top of the loop is a serial point — every phase of the
		// previous slot has joined — so partial shard totals are safe to
		// fold and stream for live progress.
		if activeSlots > 0 && activeSlots%liveFlushInterval == 0 && obs.Enabled() {
			cur := Metrics{ActiveSlots: activeSlots, ForeignTx: fsl.total}
			for si := range shards {
				cur.add(&shards[si].m)
			}
			lp.flush(&cur)
		}
		// Next slot with any scheduled wake, across all shards.
		s := int64(-1)
		for si := range shards {
			if ms := shards[si].q.MinSlot(); ms >= 0 && (s < 0 || ms < s) {
				s = ms
			}
		}
		if s < 0 {
			break
		}
		activeSlots++

		// Phase A (parallel): drain this slot's wakes. Arrivals are
		// applied, transmitters collected in ascending node order, and
		// per-(gateway, SF) transmitter counts tallied per shard.
		err := pool.ForEach(ctx, nShards, func(si int) {
			sh := &shards[si]
			sh.tx = sh.tx[:0]
			clear(sh.count)
			for sh.q.MinSlot() == s {
				lid, _ := sh.q.PopMin()
				i := sh.base + lid
				ns := &c.nodes[i]
				sh.m.Events++
				if c.wakeNode(ns, i, s, &sh.m) {
					sh.tx = append(sh.tx, i)
					sh.count[c.groupOf(ns)]++
				} else {
					sh.reschedule(c, i)
				}
			}
		})
		if err != nil {
			return canceled(err)
		}

		// Serial merge: global per-group transmitter counts (under Oracle,
		// the genie's grants), hence each group's per-transmission decode
		// probability.
		if oracle {
			c.grantOracle(s, txRuns, totalK, requeue)
		} else {
			clear(totalK)
			for si := range shards {
				for g, k := range shards[si].count {
					totalK[g] += k
				}
			}
		}
		maxK := int32(0)
		clear(probs)
		if c.foreignOn {
			fsl.beginSlot()
		}
		for g, k := range totalK {
			if k > maxK {
				maxK = k
			}
			probs[g] = c.groupProb(&fsl, g, k, s)
		}
		prevContig := lastSlot == s-1

		if maxK <= int32(c.capacity) {
			// Fast path: no group can exceed the receiver's per-slot
			// capacity, so every Bernoulli success is kept and the
			// tentative/grant round-trip collapses into one phase.
			err = pool.ForEach(ctx, nShards, func(si int) {
				sh := &shards[si]
				for _, i := range sh.tx {
					ns := &c.nodes[i]
					g := c.groupOf(ns)
					kept := c.decodeDraw(i, s) < probs[g]
					var prevK int32
					if prevContig {
						prevK = lastCounts[g]
					}
					c.finishTx(ns, i, s, kept && !c.vetoed(i, s, prevK), &sh.m)
					sh.reschedule(c, i)
				}
			})
		} else {
			// Phase B (parallel): tentative Bernoulli outcomes and
			// per-shard success counts per group.
			err = pool.ForEach(ctx, nShards, func(si int) {
				sh := &shards[si]
				sh.bern = sh.bern[:0]
				clear(sh.tent)
				for _, i := range sh.tx {
					g := c.groupOf(&c.nodes[i])
					ok := c.decodeDraw(i, s) < probs[g]
					sh.bern = append(sh.bern, ok)
					if ok {
						sh.tent[g]++
					}
				}
			})
			if err != nil {
				return canceled(err)
			}
			// Serial grant: the capacity cap keeps the first Capacity()
			// successes in GLOBAL ascending node order. Shards are
			// ascending ID ranges, so walking them in index order and
			// granting each min(successes, remaining) reproduces exactly
			// the prefix the serial reference driver keeps.
			for g := range totalK {
				remaining := int32(c.capacity)
				for si := range shards {
					sh := &shards[si]
					t := sh.tent[g]
					if t > remaining {
						t = remaining
					}
					sh.grant[g] = t
					remaining -= t
				}
			}
			// Phase C (parallel): settle outcomes within each shard's
			// grant, in ascending node order.
			err = pool.ForEach(ctx, nShards, func(si int) {
				sh := &shards[si]
				clear(sh.taken)
				for idx, i := range sh.tx {
					ns := &c.nodes[i]
					g := c.groupOf(ns)
					kept := false
					if sh.bern[idx] && sh.taken[g] < sh.grant[g] {
						sh.taken[g]++
						kept = true
					}
					var prevK int32
					if prevContig {
						prevK = lastCounts[g]
					}
					c.finishTx(ns, i, s, kept && !c.vetoed(i, s, prevK), &sh.m)
					sh.reschedule(c, i)
				}
			})
		}
		if err != nil {
			return canceled(err)
		}

		lastSlot = s
		lastCounts, totalK = totalK, lastCounts
	}

	m := c.newMetrics()
	for si := range shards {
		m.add(&shards[si].m)
	}
	m.ActiveSlots = activeSlots
	m.ForeignTx = fsl.total
	return m, nil
}
