package sim

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"choir/internal/choir"
	"choir/internal/ctxutil"
	"choir/internal/exec"
	"choir/internal/geo"
	"choir/internal/lora"
	"choir/internal/mac"
)

// E2EConfig parameterizes the end-to-end deployment experiment: the whole
// paper pipeline — testbed geometry, urban path loss, link-quality-aware
// beacon scheduling (Sec. 7.1), concurrent uplinks disentangled by the real
// IQ-level Choir decoder, and team transmissions for sensors beyond
// individual range — in one run.
type E2EConfig struct {
	// Sensors is the number of deployed clients.
	Sensors int
	// Bases is the number of base-station sites (the paper's testbed used
	// three rooftops; default 1). Each sensor associates with the site
	// offering the best shadowed link, and sites coordinate beacon slots so
	// their cells do not interfere — the standard multi-gateway LoRaWAN
	// deployment model.
	Bases int
	// PayloadLen is the reading size in bytes.
	PayloadLen int
	// ConcurrentIndividuals caps how many in-range sensors answer one
	// beacon together (the density dimension of Fig. 8).
	ConcurrentIndividuals int
	// Seed drives placement, shadowing, hardware offsets and noise.
	Seed uint64
}

// DefaultE2E returns a 30-sensor deployment, the paper's scale.
func DefaultE2E() E2EConfig {
	return E2EConfig{Sensors: 30, Bases: 1, PayloadLen: 8, ConcurrentIndividuals: 5, Seed: 5}
}

// E2EReport summarizes an end-to-end run.
type E2EReport struct {
	// Sensors echoes the deployment size.
	Sensors int
	// InRange counts sensors decodable individually; Teamed counts sensors
	// served via team slots; Unreachable counts sensors beyond even
	// team range.
	InRange, Teamed, Unreachable int
	// IndividualDelivered / IndividualExpected count payloads recovered
	// from the concurrent individual slots at IQ level.
	IndividualDelivered, IndividualExpected int
	// TeamsDelivered / TeamsExpected count team slots whose shared payload
	// was recovered at IQ level.
	TeamsDelivered, TeamsExpected int
	// BeaconSlots is the number of beacon rounds the schedule needs.
	BeaconSlots int
	// MaxServedDistance is the farthest sensor (m) whose data arrived.
	MaxServedDistance float64
}

// String implements fmt.Stringer.
func (r *E2EReport) String() string {
	return fmt.Sprintf("e2e: %d sensors -> %d in-range, %d teamed, %d unreachable; individual %d/%d, teams %d/%d, %d slots, max served %.0f m",
		r.Sensors, r.InRange, r.Teamed, r.Unreachable,
		r.IndividualDelivered, r.IndividualExpected,
		r.TeamsDelivered, r.TeamsExpected, r.BeaconSlots, r.MaxServedDistance)
}

// EndToEnd runs the deployment experiment. The IQ-level beacon rounds run
// serially on one decoder, each from its own derived seed; a round's decode
// already uses every core. Cancellation stops the rounds between two of them
// and returns the context's error instead of a partial report.
func EndToEnd(ctx context.Context, cfg E2EConfig) (*E2EReport, error) {
	if cfg.Sensors < 1 || cfg.PayloadLen < 1 || cfg.ConcurrentIndividuals < 1 {
		return nil, fmt.Errorf("sim: invalid e2e config %+v", cfg)
	}
	ctx = ctxutil.Background(ctx)
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xE2E))
	p := lora.DefaultParams()
	pl := UrbanChannel()
	rx := ReceiverConfig()

	// Place the base station centrally and sensors over a testbed sized to
	// the SF8 coverage the IQ-level runs below actually use (the paper's
	// SF12 minimum rate reaches ~2.2x farther but costs 16x the samples per
	// symbol; the geometry scales, the physics does not change).
	bases := cfg.Bases
	if bases < 1 {
		bases = 1
	}
	tb := geo.NewTestbed(geo.Config{
		Width: 2200, Height: 2000, NumBases: bases,
		NumSites: cfg.Sensors, BaseHeight: 30, ClientHeight: 1.5,
	}, rng)

	// Per-sensor link quality: median path loss plus seeded shadowing.
	// Each sensor associates with the base station offering the best
	// shadowed link (shadowing drawn independently per site pair).
	nodes := make([]e2eNode, cfg.Sensors)
	links := make([]mac.SensorLink, cfg.Sensors)
	for i, site := range tb.ClientSites {
		bestSNR, bestD := math.Inf(-1), 0.0
		for _, b := range tb.BaseStations {
			d := site.Distance(b)
			snr := ClientPowerDBm - pl.LossDB(d, rng) - rx.NoiseFloorDBm
			if snr > bestSNR {
				bestSNR, bestD = snr, d
			}
		}
		nodes[i] = e2eNode{snr: bestSNR, dist: bestD}
		// Correlate by distance ring (sensors in the same ring measure
		// similar environments).
		links[i] = mac.SensorLink{ID: i, SNRdB: bestSNR, Correlate: int(bestD / 500)}
	}

	// Thresholds match the PHY the IQ runs use (SF8): individual decode at
	// its demod threshold, team pooling to the level the joint below-noise
	// decoder demonstrably handles.
	schedCfg := mac.DefaultScheduleConfig()
	schedCfg.ThresholdDB = DemodThresholdDB(p.SF)
	schedCfg.MarginDB = 1
	schedule, unreachable, err := mac.BuildSchedule(links, schedCfg)
	if err != nil {
		return nil, err
	}

	rep := &E2EReport{Sensors: cfg.Sensors, Unreachable: len(unreachable)}
	dec, err := choir.New(choir.DefaultConfig(p))
	if err != nil {
		return nil, err
	}

	// Partition schedule entries; individual slots are merged into
	// concurrent beacon rounds of up to ConcurrentIndividuals sensors.
	var individuals []int
	var teams []mac.ScheduleEntry
	for _, e := range schedule {
		if len(e.Team) == 1 {
			individuals = append(individuals, e.Team[0])
			rep.InRange++
		} else {
			teams = append(teams, e)
			rep.Teamed += len(e.Team)
		}
	}

	served := func(id int) {
		if d := nodes[id].dist; d > rep.MaxServedDistance {
			rep.MaxServedDistance = d
		}
	}

	// Concurrent individual rounds, decoded at IQ level. Batching sensors of
	// similar strength together keeps the near-far spread within each
	// collision moderate, as the base station's scheduler would.
	slices.SortStableFunc(individuals, func(a, b int) int { return cmp.Compare(nodes[b].snr, nodes[a].snr) })
	for bi := 0; bi*cfg.ConcurrentIndividuals < len(individuals); bi++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := bi * cfg.ConcurrentIndividuals
		batch := individuals[start:min(start+cfg.ConcurrentIndividuals, len(individuals))]
		snrs := make([]float64, len(batch))
		for i, id := range batch {
			snrs[i] = nodes[id].snr
		}
		seed := exec.DeriveSeed(cfg.Seed, 1, uint64(bi))
		sc := Scenario{Params: p, PayloadLen: cfg.PayloadLen, SNRsDB: snrs, Seed: seed}
		recovered, total := sc.DecodeWith(dec)
		rep.BeaconSlots++
		rep.IndividualDelivered += len(recovered)
		rep.IndividualExpected += total
		for _, i := range recovered {
			served(batch[i])
		}
	}

	// Team rounds: identical payloads, below-noise joint decoding.
	for _, e := range teams {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		snrs := make([]float64, len(e.Team))
		for i, id := range e.Team {
			snrs[i] = nodes[id].snr
		}
		seed := exec.DeriveSeed(cfg.Seed, 2, uint64(e.Team[0]))
		sc := Scenario{Params: p, PayloadLen: cfg.PayloadLen, SNRsDB: snrs, Identical: true, Seed: seed}
		sig, payloads := sc.Synthesize()
		res, err := dec.DecodeTeam(trialCtx, sig, cfg.PayloadLen)
		ok := err == nil && res.Err == nil && string(res.Payload) == string(payloads[0])
		rep.BeaconSlots++
		rep.TeamsExpected++
		mTeamTrials.Inc()
		if ok {
			rep.TeamsDelivered++
			mTeamDelivered.Inc()
			for _, id := range e.Team {
				served(id)
			}
		}
	}
	return rep, nil
}

// e2eNode is one deployed sensor's link state.
type e2eNode struct {
	snr  float64
	dist float64
}
