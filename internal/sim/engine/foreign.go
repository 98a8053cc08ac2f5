package engine

import (
	"math"

	"choir/internal/exec"
	"choir/internal/mac"
)

// maxForeignDraw caps one (gateway, SF, slot) foreign transmitter draw.
// Knuth inversion costs O(λ) uniforms per draw, so a pathological offered
// load (millions of foreign nodes at saturation) would otherwise turn every
// contended slot into a million-fold hash walk; beyond ~16k concurrent
// foreign frames every receiver model is at zero anyway.
const maxForeignDraw = 1 << 14

// poissonChunkLambda bounds each Knuth-inversion chunk so exp(-λ) stays
// comfortably above the smallest normal float64 (exp(-500) ≈ 7e-218).
const poissonChunkLambda = 500

// poisson draws Poisson(lam) by chunked Knuth inversion with uniforms from
// the hash chain h — pure in (h, lam), so the draw is identical no matter
// which driver asks for it. A Poisson(λ) is the sum of
// independent Poisson(λ/n) chunks, which sidesteps exp underflow at large λ.
// floor is exp(-lam), which the caller keeps per rate (core.foreignFloor):
// a draw that fits one chunk — every rate a city offers — stops at it, and
// only the chunks of a larger λ compute their own.
func poisson(h uint64, lam, floor float64) int32 {
	var n int32
	t := uint64(0)
	chunked := lam > poissonChunkLambda
	for lam > 0 {
		l, L := lam, floor
		if chunked {
			l = min(lam, poissonChunkLambda)
			L = math.Exp(-l)
		}
		lam -= l
		p := 1.0
		for {
			p *= unitOf(exec.Mix(h, t))
			t++
			if p <= L {
				break
			}
			n++
			if n >= maxForeignDraw {
				return maxForeignDraw
			}
		}
	}
	return n
}

// foreignSlot memoizes one slot's foreign transmitter draws per gateway, so
// the several (gateway, SF) home groups a busy gateway hosts share a single
// draw, and tallies the run's total foreign transmissions heard. Drivers
// reset it at each contended slot and copy total into Metrics.ForeignTx.
// The memo is a per-gateway array handed out by pointer, so a receiver
// model sees the counts without a copy escaping to the heap per group.
type foreignSlot struct {
	// counts[gw] is gateway gw's draw for the current slot when drawn[gw]
	// equals epoch, and stale otherwise; beginSlot, which both drivers
	// call before a slot's first draw, starts epochs at 1.
	counts [][6]int32
	drawn  []uint64
	epoch  uint64
	total  int64
}

// beginSlot invalidates the per-slot memo (the run total survives).
func (fs *foreignSlot) beginSlot() { fs.epoch++ }

// foreignFor returns gateway gw's foreign transmitter counts by SF for slot
// s, drawing them on first request. Each count is keyed purely on
// (Seed, dimForeignTx, gw, s, sfIdx), so the set of gateways asked about —
// identical across drivers, since it is exactly the gateways with home
// transmitters that slot — is the only thing callers control; the values
// never depend on evaluation order. The result is valid until the next
// beginSlot and must not be written to.
func (c *core) foreignFor(fs *foreignSlot, gw int32, s int64) *[6]int32 {
	if fs.counts == nil {
		fs.counts = make([][6]int32, len(c.foreignRate))
		fs.drawn = make([]uint64, len(c.foreignRate))
	}
	nf := &fs.counts[gw]
	if fs.drawn[gw] == fs.epoch {
		return nf
	}
	hg := exec.Mix(exec.Mix(c.hForeignTx, uint64(gw)), uint64(s))
	for si, lam := range &c.foreignRate[gw] {
		nf[si] = 0
		if lam <= 0 {
			continue
		}
		n := poisson(exec.Mix(hg, uint64(si)), lam, c.foreignFloor[gw][si])
		nf[si] = n
		fs.total += int64(n)
	}
	fs.drawn[gw] = fs.epoch
	return nf
}

// groupProb is the per-transmission decode probability for home group g
// with k concurrent home transmissions at slot s, foreign interference
// included. It builds the group once and makes the one receiver call:
// with foreign networks configured, the same-SF foreign transmitters join
// the count and the gateway's per-SF foreign counts ride along; without,
// the group is the k home transmissions alone — the zero-foreign
// transparency the equivalence tests pin.
func (c *core) groupProb(fs *foreignSlot, g uint32, k int32, s int64) float64 {
	grp := mac.Group{SFIdx: int(g & 7), K: int(k)}
	if c.foreignOn {
		grp.Foreign = c.foreignFor(fs, int32(g>>3), s)
		grp.K += int(grp.Foreign[grp.SFIdx])
	}
	return c.cfg.Receiver.Prob(grp)
}
