package engine

import "choir/internal/obs"

// Metrics is a city run's aggregate result. Every field is a plain
// integer total or a fixed-size histogram, so two runs of the same model
// are comparable with reflect.DeepEqual — the equivalence harness does
// exactly that. The struct deliberately echoes the result-affecting
// configuration (Nodes .. SlotSeconds) and excludes Driver, which must not
// affect results.
type Metrics struct {
	// Configuration echoes.
	Nodes       int
	Gateways    int
	Slots       int
	PayloadLen  int
	SlotSeconds float64

	// Traffic totals.
	Arrivals  int64
	Delivered int64
	Dropped   int64
	// Unreachable counts nodes whose channel evaluation found no gateway
	// within even SF12 range (counted once, at first wake).
	Unreachable int64

	// Airtime accounting.
	Transmissions int64
	// CollidedTx counts transmissions that failed — collision loss,
	// capacity overflow, or adjacent-slot overlap.
	CollidedTx int64
	// PerSFTx / PerSFDelivered split transmissions and deliveries by
	// spreading factor (index 0 = SF7 .. 5 = SF12).
	PerSFTx        [6]int64
	PerSFDelivered [6]int64
	// TxEnergyNJ is the total radiated transmit energy in nanojoules:
	// each transmission's per-SF airtime × its ADR-chosen power rung,
	// accumulated as integers.
	TxEnergyNJ int64
	// ForeignTx counts foreign-network transmissions heard during the
	// home network's contended slots (the interference actually faced;
	// foreign traffic in slots with no home transmitter is never drawn).
	ForeignTx int64

	// Latency.
	TotalLatencySlots int64
	// LatencyHist buckets delivery latency in slots by powers of two:
	// bucket b holds latencies in [2^b, 2^(b+1)), the last saturates.
	LatencyHist [17]int64

	// Engine work: node-wake events processed and distinct slots that had
	// any — the event driver's cost is O(Events), not O(Nodes × Slots).
	Events      int64
	ActiveSlots int64
}

// add adds o's totals to m: every field but the configuration echoes.
// TestMetricsAddCoversEveryTotal holds it to the struct.
func (m *Metrics) add(o *Metrics) {
	m.Arrivals += o.Arrivals
	m.Delivered += o.Delivered
	m.Dropped += o.Dropped
	m.Unreachable += o.Unreachable
	m.Transmissions += o.Transmissions
	m.CollidedTx += o.CollidedTx
	for i := range m.PerSFTx {
		m.PerSFTx[i] += o.PerSFTx[i]
		m.PerSFDelivered[i] += o.PerSFDelivered[i]
	}
	m.TxEnergyNJ += o.TxEnergyNJ
	m.ForeignTx += o.ForeignTx
	m.TotalLatencySlots += o.TotalLatencySlots
	for i := range m.LatencyHist {
		m.LatencyHist[i] += o.LatencyHist[i]
	}
	m.Events += o.Events
	m.ActiveSlots += o.ActiveSlots
}

// GoodputBps returns delivered payload bits per second across the city.
func (m *Metrics) GoodputBps() float64 {
	return float64(m.Delivered*int64(m.PayloadLen)*8) / (float64(m.Slots) * m.SlotSeconds)
}

// DeliveryRatio returns delivered / arrivals (1 when there was no
// traffic).
func (m *Metrics) DeliveryRatio() float64 {
	if m.Arrivals == 0 {
		return 1
	}
	return float64(m.Delivered) / float64(m.Arrivals)
}

// MeanLatencySeconds returns the mean arrival-to-delivery latency.
func (m *Metrics) MeanLatencySeconds() float64 {
	if m.Delivered == 0 {
		return 0
	}
	return float64(m.TotalLatencySlots) / float64(m.Delivered) * m.SlotSeconds
}

// TxPerDelivered returns the mean number of transmissions spent per
// delivered packet — the paper's battery-drain proxy. With nothing
// delivered it is the transmission count itself.
func (m *Metrics) TxPerDelivered() float64 {
	if m.Delivered == 0 {
		return float64(m.Transmissions)
	}
	return float64(m.Transmissions) / float64(m.Delivered)
}

// AirtimeSeconds returns the total on-air time spent by every
// transmission, from the per-SF transmission counts and the rate-adapted
// PHY parameters at PayloadLen. Summed in SF order, so it is as
// deterministic as the counts themselves.
func (m *Metrics) AirtimeSeconds() float64 {
	total := 0.0
	for i, n := range m.PerSFTx {
		if n > 0 {
			total += float64(n) * sfParams(i).AirTime(m.PayloadLen)
		}
	}
	return total
}

// City-engine observability: cumulative totals across every Run in the
// process. A running simulation streams its partial totals into these
// incrementally (so a -debug-addr scrape shows live progress mid-run), but
// the terminal accounting contract is unchanged: a completed run's net
// counter delta equals its Metrics exactly, a canceled run nets to zero —
// everything streamed is rolled back — and city.runs moves only at
// completion, so retries can never double-count (TestRunCancelMidDrain
// pins this).
var (
	cRuns          = obs.NewCounter("city.runs")
	cEvents        = obs.NewCounter("city.events")
	cActiveSlots   = obs.NewCounter("city.active_slots")
	cArrivals      = obs.NewCounter("city.arrivals")
	cDelivered     = obs.NewCounter("city.delivered")
	cDropped       = obs.NewCounter("city.dropped")
	cTransmissions = obs.NewCounter("city.transmissions")
	cCollidedTx    = obs.NewCounter("city.collided_tx")
	cUnreachable   = obs.NewCounter("city.unreachable")
	cTxEnergyNJ    = obs.NewCounter("city.tx_energy_nj")
	cForeignTx     = obs.NewCounter("city.foreign_tx")
)

// liveFlushInterval is how many active slots pass between streaming
// flushes, on either driver.
const liveFlushInterval = 256

// liveProgress streams one run's, or one band's, partial totals into the
// city.* counters. An event run's bands stream their own, and run sums
// what they streamed into the run's liveProgress before it finishes or
// rolls back; mid-run, city.active_slots counts a slot once per band that
// had work in it, and finish settles it to the union.
// It remembers what it has streamed so far: flush adds only the delta
// since the last call, rollback subtracts everything streamed. Because a
// flush is skipped entirely while recording is disabled, streamed only
// ever holds amounts the counters actually absorbed, and a rollback can
// never underflow them.
type liveProgress struct {
	streamed Metrics
}

// flush streams the delta between the run's current totals and what has
// already been streamed. The drivers call it between slots, on the
// goroutine that runs the band.
func (lp *liveProgress) flush(cur *Metrics) {
	if obs.Enabled() {
		lp.moveTo(cur)
	}
}

// rollback retracts everything this run streamed, returning the counters
// to their pre-run values. Called when a run is canceled mid-drain.
func (lp *liveProgress) rollback() { lp.moveTo(&Metrics{}) }

// moveTo moves every streamed counter from what lp has streamed to to's
// total, and remembers to as streamed.
func (lp *liveProgress) moveTo(to *Metrics) {
	from := &lp.streamed
	cEvents.Add(to.Events - from.Events)
	cActiveSlots.Add(to.ActiveSlots - from.ActiveSlots)
	cArrivals.Add(to.Arrivals - from.Arrivals)
	cDelivered.Add(to.Delivered - from.Delivered)
	cDropped.Add(to.Dropped - from.Dropped)
	cTransmissions.Add(to.Transmissions - from.Transmissions)
	cCollidedTx.Add(to.CollidedTx - from.CollidedTx)
	cUnreachable.Add(to.Unreachable - from.Unreachable)
	cTxEnergyNJ.Add(to.TxEnergyNJ - from.TxEnergyNJ)
	cForeignTx.Add(to.ForeignTx - from.ForeignTx)
	lp.streamed = *to
}

// finish streams the completed run's remaining totals and counts the run
// itself — the only place city.runs moves.
func (lp *liveProgress) finish(m *Metrics) {
	cRuns.Inc()
	lp.flush(m)
}
