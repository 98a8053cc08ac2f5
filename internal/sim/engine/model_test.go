package engine

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"choir/internal/exec"
	"choir/internal/lora"
	"choir/internal/mac"
	"choir/internal/sim"
)

// modelRun is the city model written out plainly, as the reference the
// engine's rule is held to: one loop over every slot, and in each an
// ascending scan of every node, in float64 straight from DESIGN.md §15 and
// §17 — placement on the jittered grid, the gateway of the node's grid
// cell, the log-distance link budget with Box-Muller shadowing, the four
// ADR policies, geometric arrival gaps by inverse CDF, per-(gateway, SF)
// Poisson foreign counts by Knuth inversion, the genie's round-robin
// grants, the receiver's capacity ration, the unslotted veto and binary
// exponential backoff. It keeps no calendar, pool, band, packed record or
// precomputed table: queues are slices and a slot's group tallies are maps.
//
// What it shares with the engine is the contract a run is defined by:
// Config and Metrics, the receiver in Config, exec.Start and exec.Mix with
// the dim* tags (every draw is a hash of its logical coordinates), and the
// PHY definitions of sim, channel and lora. TestModelIsIndependent holds it
// to that list. The engine's tables, guards and fast routes must return
// what these exact expressions return, so Run is reflect.DeepEqual to
// modelRun on every config (eventMatchesSlot).
func modelRun(cfg Config) *Metrics {
	if cfg.Gateways == 0 {
		cfg.Gateways = 1
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 64
	}
	if cfg.MaxBackoffExp == 0 {
		cfg.MaxBackoffExp = 8
	}
	if cfg.PayloadLen == 0 {
		cfg.PayloadLen = 12
	}
	cols := int(math.Ceil(math.Sqrt(float64(cfg.Gateways))))
	rows := (cfg.Gateways + cols - 1) / cols
	if cfg.SideM == 0 {
		cfg.SideM = 1600 * float64(cols)
	}
	if cfg.SlotSeconds == 0 {
		cfg.SlotSeconds = sim.ParamsForSF(lora.SF12).AirTime(cfg.PayloadLen) * 1.1
	}
	w := &modelWorld{cfg: cfg, cols: cols, rows: rows, noise: sim.ReceiverConfig().NoiseFloorDBm}
	for g := 0; g < cfg.Gateways; g++ {
		w.gwX = append(w.gwX, (float64(g%cols)+0.5)*cfg.SideM/float64(cols))
		w.gwY = append(w.gwY, (float64(g/cols)+0.5)*cfg.SideM/float64(rows))
	}
	h0 := exec.Start(cfg.Seed)
	head := func(dim uint64) uint64 { return exec.Mix(h0, dim) }

	// Foreign networks: every node placed uniformly and linked once, its
	// per-slot rate summed into its (gateway, SF) group in net and node order.
	rate := make([][6]float64, cfg.Gateways)
	foreignOn := false
	for ni, fn := range cfg.Foreign {
		if fn.Nodes <= 0 || fn.ArrivalPerSlot <= 0 {
			continue
		}
		foreignOn = true
		hp, hs := exec.Mix(head(dimForeignPos), uint64(ni)), exec.Mix(head(dimForeignShadow), uint64(ni))
		for j := 0; j < fn.Nodes; j++ {
			hpj := exec.Mix(hp, uint64(j))
			x := modelUnit(exec.Mix(hpj, 0)) * cfg.SideM
			y := modelUnit(exec.Mix(hpj, 1)) * cfg.SideM
			if l := w.link(fn.ADR, x, y, exec.Mix(hs, uint64(j))); l.reach {
				rate[l.gw][l.sf] += fn.ArrivalPerSlot
			}
		}
	}

	capacity := max(cfg.Receiver.Capacity(), 1)
	unslotted := cfg.Unslotted && cfg.Scheme == mac.SchemeAloha
	slots := int64(cfg.Slots)
	// arrival is the slot of node i's arrival number idx: base plus a
	// geometric gap floor(ln(1-u)/ln(1-p)), or -1 at or past the horizon.
	arrival := func(i int, idx uint64, base int64) int64 {
		p := cfg.ArrivalPerSlot
		switch {
		case base >= slots || p <= 0:
			return -1
		case p >= 1:
			return base
		}
		u := modelUnit(exec.Mix(exec.Mix(head(dimArrival), uint64(i)), idx))
		if gap := math.Log1p(-u) / math.Log1p(-p); gap < float64(slots-base) {
			return base + int64(gap)
		}
		return -1
	}

	m := &Metrics{Nodes: cfg.Nodes, Gateways: cfg.Gateways, Slots: cfg.Slots,
		PayloadLen: cfg.PayloadLen, SlotSeconds: cfg.SlotSeconds}
	grid := int(math.Ceil(math.Sqrt(float64(cfg.Nodes))))
	pitch := cfg.SideM / float64(grid)
	nodes := make([]modelNode, cfg.Nodes)
	for i := range nodes {
		nodes[i].nextArrival, nodes[i].nextTx = arrival(i, 0, 0), -1
	}
	prev := map[int]int{} // the previous slot's transmitters per group
	for s := int64(0); s < slots; s++ {
		var tx []int
		woke := false
		for i := range nodes {
			n := &nodes[i]
			if n.nextArrival != s && n.nextTx != s {
				continue
			}
			woke = true
			m.Events++
			if !n.resolved {
				hp := exec.Mix(head(dimPos), uint64(i))
				x := (float64(i%grid) + modelUnit(exec.Mix(hp, 0))) * pitch
				y := (float64(i/grid) + modelUnit(exec.Mix(hp, 1))) * pitch
				n.modelLink = w.link(cfg.ADR, x, y, exec.Mix(head(dimShadow), uint64(i)))
				n.resolved = true
				if !n.reach {
					m.Unreachable++
					n.nextArrival = -1
					continue
				}
			}
			if n.nextArrival == s {
				m.Arrivals++
				if len(n.queue) < cfg.QueueCap {
					if len(n.queue) == 0 {
						n.nextTx = s
					}
					n.queue = append(n.queue, s)
				} else {
					m.Dropped++
				}
				n.arrivals++
				n.nextArrival = arrival(i, n.arrivals, s+1)
			}
			if n.nextTx == s {
				tx = append(tx, i)
			}
		}
		if !woke {
			prev = map[int]int{}
			continue
		}
		m.ActiveSlots++
		group := func(i int) int { return nodes[i].gw*8 + nodes[i].sf }

		if cfg.Scheme == mac.SchemeOracle {
			// Round robin from node s mod Nodes: the first capacity of each
			// group keep the slot, the rest try again at s+1 without
			// transmitting.
			first := sort.SearchInts(tx, int(s%int64(cfg.Nodes)))
			granted := map[int]int{}
			for k := range tx {
				i := tx[(first+k)%len(tx)]
				if g := group(i); granted[g] < capacity {
					granted[g]++
				} else {
					nodes[i].nextTx = s + 1
				}
			}
			tx = slices.DeleteFunc(tx, func(i int) bool { return nodes[i].nextTx != s })
		}

		tally := map[int]int{}
		for _, i := range tx {
			tally[group(i)]++
		}
		foreign := map[int]*[6]int32{}
		prob := map[int]float64{}
		for g, k := range tally {
			grp := mac.Group{SFIdx: g % 8, K: k}
			if foreignOn {
				gw := g / 8
				if foreign[gw] == nil {
					foreign[gw] = new([6]int32)
					hg := exec.Mix(exec.Mix(head(dimForeignTx), uint64(gw)), uint64(s))
					for si, lam := range rate[gw] {
						if lam > 0 {
							foreign[gw][si] = int32(modelPoisson(exec.Mix(hg, uint64(si)), lam))
							m.ForeignTx += int64(foreign[gw][si])
						}
					}
				}
				grp.Foreign = foreign[gw]
				grp.K += int(grp.Foreign[grp.SFIdx])
			}
			prob[g] = cfg.Receiver.Prob(grp)
		}

		taken := map[int]int{}
		for _, i := range tx {
			n, g := &nodes[i], group(i)
			delivered := false
			if modelUnit(exec.Mix(exec.Mix(head(dimDecode), uint64(i)), uint64(s))) < prob[g] && taken[g] < capacity {
				taken[g]++
				delivered = true
			}
			// Unslotted ALOHA: each of the previous slot's same-group
			// transmissions, standing in for both neighbours, overlaps the
			// frame with probability 1/2.
			if delivered && unslotted {
				hv := exec.Mix(exec.Mix(head(dimVeto), uint64(i)), uint64(s))
				for j := 0; j < 2*prev[g]; j++ {
					if modelUnit(exec.Mix(hv, uint64(j))) < 0.5 {
						delivered = false
						break
					}
				}
			}
			air := sim.ParamsForSF(lora.SF7 + lora.SpreadingFactor(n.sf)).AirTime(cfg.PayloadLen)
			m.Transmissions++
			m.PerSFTx[n.sf]++
			m.TxEnergyNJ += int64(math.Round(air * math.Pow(10, TxPowersDBm[n.pwr]/10) * 1e6))
			if delivered {
				lat := s - n.queue[0] + 1
				n.queue = n.queue[1:]
				m.Delivered++
				m.PerSFDelivered[n.sf]++
				m.TotalLatencySlots += lat
				m.LatencyHist[min(bits.Len64(uint64(lat))-1, len(m.LatencyHist)-1)]++
				n.backoffExp, n.nextTx = 0, s+1
				if len(n.queue) == 0 {
					n.nextTx = -1
				}
				continue
			}
			m.CollidedTx++
			n.nextTx = s + 1
			if cfg.Scheme == mac.SchemeAloha {
				n.backoffExp = min(n.backoffExp+1, cfg.MaxBackoffExp)
				window := uint64(1) << n.backoffExp
				n.nextTx += int64(exec.Mix(exec.Mix(head(dimBackoff), uint64(i)), uint64(s)) % window)
			}
		}
		prev = tally
	}
	return m
}

// modelWorld is the city's fixed geometry: its gateway grid and channel.
type modelWorld struct {
	cfg        Config
	cols, rows int
	gwX, gwY   []float64
	noise      float64
}

// modelLink is a node's resolved link: its gateway, SF index (0 = SF7) and
// power rung, and whether that choice reaches the gateway.
type modelLink struct {
	gw, sf, pwr int
	reach       bool
}

// modelNode is a home node: its link, resolved at its first wake, its next
// arrival and attempt (-1 for none), its arrival count, its queue of
// arrival slots and its backoff exponent.
type modelNode struct {
	modelLink
	resolved            bool
	nextArrival, nextTx int64
	arrivals            uint64
	queue               []int64
	backoffExp          int
}

// modelUnit maps a hash to a uniform float64 in [0, 1): its top 53 bits.
func modelUnit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// modelPoisson draws Poisson(lam) by Knuth inversion — multiply uniforms
// until the product falls to exp(-λ) — from the hash chain h, in chunks of
// at most λ = 500 so exp(-λ) stays a normal float64, and caps a draw at
// 2^14 transmitters.
func modelPoisson(h uint64, lam float64) int {
	n, t := 0, uint64(0)
	for lam > 0 {
		l := min(lam, 500)
		lam -= l
		for p := 1.0; ; n++ {
			p *= modelUnit(exec.Mix(h, t))
			t++
			if p <= math.Exp(-l) {
				break
			}
			if n+1 >= 1<<14 {
				return 1 << 14
			}
		}
	}
	return n
}

// link resolves a node at (x, y) whose shadowing hash head is hs: the
// gateway of the grid cell it lies in, its offset from that gateway, and
// the policy's choice over the shadowed log-distance link budget.
func (w *modelWorld) link(policy ADRPolicy, x, y float64, hs uint64) modelLink {
	side := w.cfg.SideM
	col := min(int(x/side*float64(w.cols)), w.cols-1)
	row := min(int(y/side*float64(w.rows)), w.rows-1)
	gw := min(row*w.cols+col, w.cfg.Gateways-1)
	d := max(math.Hypot(x-w.gwX[gw], y-w.gwY[gw]), 1)
	u1, u2 := modelUnit(exec.Mix(hs, 0)), modelUnit(exec.Mix(hs, 1))
	z := math.Sqrt(-2*math.Log1p(-u1)) * math.Cos(2*math.Pi*u2)

	pl := sim.UrbanChannel()
	medLoss := pl.RefLossDB + 10*pl.Exponent*math.Log10(max(d, pl.RefDistance)/pl.RefDistance)
	loss := medLoss + pl.ShadowSigmaDB*z
	snr := sim.ClientPowerDBm - loss - w.noise
	top := len(TxPowersDBm) - 1
	out := modelLink{gw: gw, pwr: top}
	switch policy {
	case ADRFixedSF12:
		out.sf, out.reach = 5, snr >= sim.DemodThresholdDB(lora.SF12)+1
	case ADRDistance, ADRTxPower:
		// The SF from the median budget; the shadowed link must still clear
		// its threshold at the chosen power.
		sf, ok := sim.SFForSNR(sim.ClientPowerDBm - medLoss - w.noise)
		thr := sim.DemodThresholdDB(sf) + 1
		if policy == ADRTxPower {
			// The lowest rung whose median SNR clears the threshold.
			for p, dbm := range TxPowersDBm {
				if dbm-medLoss-w.noise >= thr {
					out.pwr = p
					break
				}
			}
		}
		out.sf, out.reach = int(sf-lora.SF7), ok && TxPowersDBm[out.pwr]-loss-w.noise >= thr
	default: // ADRFastestSNR
		sf, ok := sim.SFForSNR(snr)
		out.sf, out.reach = int(sf-lora.SF7), ok
	}
	return out
}
