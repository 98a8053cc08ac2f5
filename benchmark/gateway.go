package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"choir/internal/exec"
	"choir/internal/gateway"
	"choir/internal/obs"
)

// deadline is half the LoRaWAN 1 s RX1 delay: an outcome later than this
// after the frame was due leaves the network server no time to answer.
const deadline = 500 * time.Millisecond

const (
	lightVariants = 32
	heavyVariants = 2
	openRate      = 16 // frames/s offered by gw_light_open
)

// gwSpec says how a gateway workload (or a probe that borrows its plumbing)
// drives the gateway.
type gwSpec struct {
	heavy    bool    // heavy pool; else light
	tcp      bool    // loopback ServeTCPStream; else in-process Submit
	journal  bool    // JournalDir set
	workers  int     // gateway.Config.Workers
	batch    int     // gateway.Config.Batch (0 = default)
	inflight int     // closed loop: frames in flight
	rate     float64 // open loop: Poisson arrivals per second; 0 = closed loop
}

var gwSpecs = map[string]gwSpec{
	"gw_light_closed": {tcp: true, journal: true, workers: 1, inflight: 2},
	"gw_light_open":   {tcp: true, journal: true, workers: 1, rate: openRate},
	"gw_heavy_closed": {heavy: true, workers: 2, inflight: 2},
}

// frameRec follows one offered frame from its due time to its outcome.
type frameRec struct {
	poolIdx   int
	id        uint64
	due       time.Time // open loop: scheduled; closed loop: send start
	sendStart time.Time
	outcome   time.Time
	refused   bool
	done      bool
	kind      gateway.OutcomeKind
	attempts  int
	stage     gateway.Stage
	recovered int // payloads byte-equal to a transmitted one (one-to-one)
	sent      int // payloads transmitted
	falseP    int // CRC-clean payloads that match nothing transmitted
	root      int // gateway.frame span
}

func (r *frameRec) latency() time.Duration { return r.outcome.Sub(r.due) }

// tracker pairs outcomes with offered frames by gateway frame ID. Either
// side may come first: the gateway can emit an outcome before the generator
// has read that frame's "accepted <id>" reply.
type tracker struct {
	pool *framePool
	rec  *recorder

	mu     sync.Mutex
	byID   map[uint64]*frameRec
	early  map[uint64]earlyOutcome
	seen   map[uint64]bool
	dups   int
	wg     sync.WaitGroup // one per offered frame without a terminal state yet
	tokens chan struct{}  // closed loop: in-flight slots; nil in open loop
}

type earlyOutcome struct {
	o gateway.Outcome
	t time.Time
}

func newTracker(pool *framePool, rec *recorder) *tracker {
	return &tracker{
		pool: pool, rec: rec,
		byID: map[uint64]*frameRec{}, early: map[uint64]earlyOutcome{}, seen: map[uint64]bool{},
	}
}

// register ties an accepted frame to its gateway ID.
func (tr *tracker) register(id uint64, r *frameRec) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	r.id = id
	tr.byID[id] = r
	if e, ok := tr.early[id]; ok {
		delete(tr.early, id)
		tr.finalize(r, e.o, e.t)
	}
}

// refuse settles a frame the gateway did not accept: it gets no outcome.
func (tr *tracker) refuse(r *frameRec) {
	r.refused = true
	r.sent = len(tr.pool.frames[r.poolIdx].payloads)
	tr.release()
}

func (tr *tracker) outcome(o gateway.Outcome, t time.Time) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.seen[o.FrameID] {
		tr.dups++
		return
	}
	tr.seen[o.FrameID] = true
	if r, ok := tr.byID[o.FrameID]; ok {
		tr.finalize(r, o, t)
	} else {
		tr.early[o.FrameID] = earlyOutcome{o, t}
	}
}

// finalize runs with tr.mu held.
func (tr *tracker) finalize(r *frameRec, o gateway.Outcome, t time.Time) {
	r.outcome, r.done = t, true
	r.kind, r.attempts, r.stage = o.Kind, o.Attempts, o.Stage
	r.recovered, r.falseP = matchPayloads(o.Payloads, tr.pool.frames[r.poolIdx].payloads)
	r.sent = len(tr.pool.frames[r.poolIdx].payloads)
	tr.rec.finish(r.root, t)
	tr.release()
}

// bound lets at most n offered frames be outstanding: the sender takes a
// token before each offer. unbound waits for them all and lifts the limit.
func (tr *tracker) bound(n int) {
	tr.tokens = make(chan struct{}, n)
	for i := 0; i < n; i++ {
		tr.tokens <- struct{}{}
	}
}

func (tr *tracker) unbound() {
	tr.wg.Wait()
	tr.tokens = nil
}

func (tr *tracker) release() {
	if tr.tokens != nil {
		tr.tokens <- struct{}{}
	}
	tr.wg.Done()
}

// matchPayloads counts decoded payloads against the ground truth: each
// transmitted payload is recovered at most once, a repeat of a transmitted
// payload is ignored, and a payload equal to none is false.
func matchPayloads(got, want [][]byte) (recovered, falseP int) {
	used := make([]bool, len(want))
next:
	for _, g := range got {
		known := false
		for i, w := range want {
			if string(g) == string(w) {
				known = true
				if !used[i] {
					used[i] = true
					recovered++
					continue next
				}
			}
		}
		if !known {
			falseP++
		}
	}
	return recovered, falseP
}

// gwEnv is one running gateway with everything the generator needs.
type gwEnv struct {
	spec  gwSpec
	pool  *framePool
	g     *gateway.Gateway
	tr    *tracker
	rec   *recorder
	addr  string
	jdir  string
	stop  context.CancelFunc
	serve chan error
	coll  chan struct{}
	seq   int64 // frames offered so far; the span ID
}

func buildPool(seed uint64, heavy bool, scale float64, rec *recorder) *framePool {
	start := time.Now()
	var fp *framePool
	if heavy {
		fp = heavyPool(seed, max(1, int(heavyVariants*scale+0.5)))
	} else {
		fp = lightPool(seed, max(2, int(lightVariants*scale+0.5)))
	}
	rec.add("sim.synthesize", "sim", -1, -1, start, time.Now())
	return fp
}

// startGateway does everything a gateway workload needs before its first
// timed frame — synthesis, encoding, gateway.New, listener, warm-up frames —
// and reports how long that took.
func startGateway(rc *runCtx, spec gwSpec, rec *recorder) (*gwEnv, time.Duration, error) {
	t0 := time.Now()
	e := &gwEnv{spec: spec, rec: rec}
	e.pool = buildPool(rc.seed, spec.heavy, rc.scale, rec)
	if spec.tcp {
		if _, _, err := e.pool.encode(rec); err != nil {
			return nil, 0, err
		}
	}
	cfg := gateway.Config{
		Workers: spec.workers, Policy: gateway.ShedReject, Batch: spec.batch,
		Seed: exec.DeriveSeed(rc.seed, dimGateway),
	}
	if spec.journal {
		if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
			return nil, 0, err
		}
		dir, err := os.MkdirTemp(rc.outDir, "journal-")
		if err != nil {
			return nil, 0, err
		}
		e.jdir, cfg.JournalDir = dir, dir
	}
	g, err := gateway.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	e.g = g
	e.tr = newTracker(e.pool, rec)
	e.coll = make(chan struct{})
	go func() {
		defer close(e.coll)
		for o := range g.Outcomes() {
			e.tr.outcome(o, time.Now())
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	e.stop = cancel
	if spec.tcp {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, 0, err
		}
		e.addr = ln.Addr().String()
		e.serve = make(chan error, 1)
		go func() { e.serve <- gateway.ServeTCPStream(ctx, g, ln) }()
	}
	e.warmUp()
	return e, time.Since(t0), nil
}

// warmUp sends every frame of the pool once, one per worker in flight, so
// plans, decoder pools and the journal segment exist before timing. It also
// vets the pool, because a workload is chosen so that no operation fails and
// so that a cell costs and delivers alike whatever the seed: of each cell
// only the renderings that decoded best are kept for the timed order —
// first rung before a later one, fewest payloads lost. A rendering the
// decoder cannot separate at all (two users a sub-bin apart, its documented
// limit) is thereby used only if its cell has nothing better.
func (e *gwEnv) warmUp() {
	e.tr.bound(e.spec.workers)
	recs := make([]*frameRec, len(e.pool.frames))
	for fi := range e.pool.frames {
		<-e.tr.tokens
		recs[fi] = e.offer(fi, time.Now())
	}
	e.tr.unbound()
	penalty := func(r *frameRec) int {
		if !r.done || r.kind != gateway.OutcomeDecoded {
			return 1 << 20
		}
		return (r.attempts-1)<<10 + r.sent - r.recovered
	}
	e.pool.usable = make([][]int, e.pool.cells)
	for c := range e.pool.usable {
		best := 1 << 30
		for fi := c * e.pool.variants; fi < (c+1)*e.pool.variants; fi++ {
			if p := penalty(recs[fi]); p < best {
				best, e.pool.usable[c] = p, nil
			}
			if penalty(recs[fi]) == best {
				e.pool.usable[c] = append(e.pool.usable[c], fi)
			}
		}
	}
}

// offer sends one frame and returns its record; the outcome arrives later.
func (e *gwEnv) offer(fi int, due time.Time) *frameRec {
	r := &frameRec{poolIdx: fi, due: due, sendStart: time.Now(), root: -1}
	id := e.seq
	e.seq++
	r.root = e.rec.open("gateway.frame", "gateway", id, -1, due)
	e.tr.wg.Add(1)
	var gid uint64
	var err error
	if e.spec.tcp {
		gid, err = e.sendTCP(&e.pool.frames[fi], id, r.root)
	} else {
		f := &e.pool.frames[fi]
		start := time.Now()
		gid, err = e.g.Submit(context.Background(), "bench", f.header, f.samples)
		e.rec.add("gateway.submit", "gateway", id, r.root, start, time.Now())
	}
	if err != nil {
		e.rec.finish(r.root, time.Now())
		e.tr.refuse(r)
		return r
	}
	e.tr.register(gid, r)
	return r
}

// sendTCP speaks the framed streaming protocol as a sensor uplink would:
// preface, wait for admission, samples, close. One connection at a time.
func (e *gwEnv) sendTCP(f *frame, id int64, parent int) (uint64, error) {
	start := time.Now()
	deliver := e.rec.open("gateway.deliver", "gateway", id, parent, start)
	defer func() { e.rec.finish(deliver, time.Now()) }()
	conn, err := net.Dial("tcp", e.addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	hlen := int(binary.LittleEndian.Uint32(f.wire))
	preface := 4 + hlen + 4
	if _, err := conn.Write(f.wire[:preface]); err != nil {
		return 0, err
	}
	line, err := bufio.NewReader(conn).ReadString('\n')
	e.rec.add("gateway.admit", "gateway", id, deliver, start, time.Now())
	if err != nil {
		return 0, err
	}
	rest, ok := strings.CutPrefix(strings.TrimSpace(line), "accepted ")
	if !ok {
		return 0, fmt.Errorf("gateway refused: %s", strings.TrimSpace(line))
	}
	gid, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, err
	}
	// Admitted: whatever happens to the samples now, the gateway owes this
	// frame an outcome (ErrStreamAborted if they do not arrive).
	_, _ = conn.Write(f.wire[preface:])
	return gid, nil
}

// close drains the gateway and returns what it broke of what it promises
// about itself.
func (e *gwEnv) close() []string {
	var problems []string
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	if err := e.g.Drain(ctx); err != nil {
		problems = append(problems, "drain: "+err.Error())
	}
	cancel()
	e.stop()
	if e.serve != nil {
		if err := <-e.serve; err != nil {
			problems = append(problems, "serve: "+err.Error())
		}
	}
	<-e.coll
	st := e.g.Stats()
	if st.Accepted != st.Decoded+st.Failed+st.Shed {
		problems = append(problems, fmt.Sprintf("stats: accepted %d != decoded %d + failed %d + shed %d",
			st.Accepted, st.Decoded, st.Failed, st.Shed))
	}
	e.tr.mu.Lock()
	if e.tr.dups > 0 {
		problems = append(problems, fmt.Sprintf("%d duplicate outcome IDs", e.tr.dups))
	}
	if n := len(e.tr.early); n > 0 {
		problems = append(problems, fmt.Sprintf("%d outcomes for frames never accepted", n))
	}
	missing := 0
	for _, r := range e.tr.byID {
		if !r.done {
			missing++
		}
	}
	if missing > 0 {
		problems = append(problems, fmt.Sprintf("%d accepted frames without an outcome", missing))
	}
	if int64(len(e.tr.byID)) != st.Accepted {
		problems = append(problems, fmt.Sprintf("gateway accepted %d frames, generator saw %d accepted", st.Accepted, len(e.tr.byID)))
	}
	e.tr.mu.Unlock()
	if e.jdir != "" {
		os.RemoveAll(e.jdir)
	}
	// The next segment builds a whole new gateway: whether this one's
	// garbage is still resident then is the collector's whim, and peak RSS
	// swung by ±15 % with it. Every segment starts from a collected heap.
	debug.FreeOSMemory()
	return problems
}

// segment is one set-up plus one timed phase on a fresh gateway.
type segment struct {
	setup      time.Duration
	setupSpeed float64 // boxSpeed around the set-up
	speed      float64 // boxSpeed around the timed phase
	speedEnd   float64 // boxSpeed right after the timed phase
	wall, cpu  time.Duration
	recs       []*frameRec
	genLate    []float64 // ms, open loop
	backlogEnd int64
	mallocs    uint64
	snap       obs.Snapshot // traced: obs deltas over the timed phase
}

// runSegment starts a gateway, offers frames for about budget, drains and
// checks. A non-nil rec makes it the traced segment: spans are kept and obs
// is on during the timed phase.
func runSegment(rc *runCtx, spec gwSpec, budget time.Duration, rec *recorder) (*segment, error) {
	s0 := boxSpeed(rc.scale)
	e, setup, err := startGateway(rc, spec, rec)
	if err != nil {
		return nil, err
	}
	s1 := boxSpeed(rc.scale)
	seg := e.measure(rc, budget)
	seg.setup, seg.setupSpeed, seg.speed = setup, (s0+s1)/2, (s1+seg.speedEnd)/2
	return seg, nil
}

// measure is the timed phase and the teardown of a started gateway.
func (e *gwEnv) measure(rc *runCtx, budget time.Duration) *segment {
	seg := &segment{}
	if e.rec != nil {
		obs.Reset()
		obs.Enable()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, start := cpuTime(), time.Now()
	if e.spec.rate > 0 {
		seg.recs = e.openLoop(rc.seed, e.spec.rate, budget, start, seg)
	} else {
		seg.recs = e.closedLoop(rc.seed, e.spec.inflight, budget, start)
	}
	e.tr.wg.Wait()
	end := start
	for _, r := range seg.recs {
		if r.done && r.outcome.After(end) {
			end = r.outcome
		}
	}
	seg.wall, seg.cpu = end.Sub(start), cpuTime()-cpu0
	seg.speedEnd = boxSpeed(rc.scale)
	runtime.ReadMemStats(&ms1)
	seg.mallocs = ms1.Mallocs - ms0.Mallocs
	if e.rec != nil {
		seg.snap = obs.TakeSnapshot()
		obs.Disable()
	}
	for _, p := range e.close() {
		rc.problem("%s", p)
	}
	falseP := 0
	for _, r := range seg.recs {
		falseP += r.falseP
	}
	if falseP > 0 {
		rc.problem("%d false payloads (CRC-clean, equal to nothing transmitted)", falseP)
	}
	return seg
}

// closedLoop keeps inflight frames outstanding from one sender and starts
// another pass over the pool only while it still fits the budget.
func (e *gwEnv) closedLoop(seed uint64, inflight int, budget time.Duration, start time.Time) []*frameRec {
	e.tr.bound(inflight)
	defer e.tr.unbound()
	order := newFrameOrder(seed, e.pool.usable)
	var recs []*frameRec
	for pass := 0; ; pass++ {
		if el := time.Since(start); pass > 0 && el+el/time.Duration(pass) > budget {
			return recs
		}
		for _, fi := range order.pass() {
			<-e.tr.tokens
			recs = append(recs, e.offer(fi, time.Now()))
		}
	}
}

// openLoop offers frames on a seeded Poisson schedule whatever the gateway
// does, timing each from when it was due.
func (e *gwEnv) openLoop(seed uint64, rate float64, budget time.Duration, start time.Time, seg *segment) []*frameRec {
	n := max(1, int(rate*budget.Seconds()+0.5))
	due := arrivalSchedule(seed, n, budget)
	order := newFrameOrder(seed, e.pool.usable).take(n)
	recs := make([]*frameRec, 0, n)
	for i, d := range due {
		at := start.Add(d)
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		r := e.offer(order[i], at)
		seg.genLate = append(seg.genLate, float64(r.sendStart.Sub(at))/1e6)
		recs = append(recs, r)
	}
	st := e.g.Stats()
	seg.backlogEnd = st.Accepted - st.Decoded - st.Failed - st.Shed
	return recs
}

// tally is what a set of offered frames amounts to.
type tally struct {
	offered, terminal, refused, failed, shed, decoded, onTime int
	recovered, sent                                           int
	attempts, firstRung                                       int
	latMS                                                     []float64 // sorted, frames with an outcome
}

func tallyOf(recs []*frameRec) tally {
	var t tally
	for _, r := range recs {
		t.offered++
		t.sent += r.sent
		if r.refused {
			t.refused++
			continue
		}
		t.terminal++
		t.recovered += r.recovered
		t.attempts += r.attempts
		t.latMS = append(t.latMS, float64(r.latency())/1e6)
		switch r.kind {
		case gateway.OutcomeDecoded:
			t.decoded++
			if r.stage == 0 {
				t.firstRung++
			}
			if r.latency() <= deadline {
				t.onTime++
			}
		case gateway.OutcomeFailed:
			t.failed++
		case gateway.OutcomeShed:
			t.shed++
		}
	}
	sort.Float64s(t.latMS)
	return t
}

func (t tally) bad() int { return t.refused + t.failed + t.shed }

// invalid says why an open-loop segment measured its generator (or a stall of
// the whole process) and not the gateway; "" when it is sound. Lateness is
// judged at the highest percentile the segment's frame count supports (ten
// samples beyond it): a lone stall of the box delays a frame or two, which
// their latency — timed from when they were due — already shows.
func (seg *segment) invalid() string {
	if p := tailPercentile(len(seg.genLate)); p > 0 {
		if late := quantile(sortedCopy(seg.genLate), float64(p)/100); late > 20 {
			return fmt.Sprintf("generator ran %.1f ms late at p%d (limit 20 ms)", late, p)
		}
	}
	if seg.backlogEnd > 64 {
		return fmt.Sprintf("backlog %d at the last send exceeds the queue", seg.backlogEnd)
	}
	return ""
}

// soundSegment runs a segment, and once more each time it comes out invalid,
// up to three times: a stall of the whole box makes the generator late, and
// one such segment must not sink a run. A third invalid one marks the run.
func soundSegment(rc *runCtx, spec gwSpec, budget time.Duration, rec *recorder) (*segment, error) {
	for try := 1; ; try++ {
		seg, err := runSegment(rc, spec, budget, rec)
		if err != nil {
			return nil, err
		}
		why := seg.invalid()
		if why == "" {
			return seg, nil
		}
		if try == 3 {
			rc.problem("invalid: %s", why)
			return seg, nil
		}
		rc.note("segment discarded and run again: %s", why)
	}
}

// runGateway is a gateway workload: three fresh set-ups, each followed by a
// third of the measured time, so set-up is sampled three times and a rate is
// the median of three phases that a disturbance can only hit one of. Times
// are reported at the reference box speed (boxspeed.go); the open loop's
// rate is what was offered, not how fast the box is, and stays as it is.
func runGateway(rc *runCtx, spec gwSpec) error {
	const segments = 3
	var (
		setups, rates, cpus, speeds, rawRates, rawCPUs []float64
		all                                            []*frameRec
	)
	for s := 0; s < segments; s++ {
		seg, err := soundSegment(rc, spec, rc.budget(1.0/segments), nil)
		if err != nil {
			return err
		}
		t := tallyOf(seg.recs)
		if t.terminal == 0 {
			return fmt.Errorf("no frame reached an outcome")
		}
		rate := float64(t.terminal) / seg.wall.Seconds()
		cpu := float64(seg.cpu.Microseconds()) / float64(t.terminal)
		rawRates, rawCPUs, speeds = append(rawRates, rate), append(rawCPUs, cpu), append(speeds, seg.speed)
		if spec.rate == 0 {
			rate /= seg.speed
		}
		setups = append(setups, seg.setup.Seconds()*seg.setupSpeed)
		rates = append(rates, rate)
		cpus = append(cpus, cpu*seg.speed)
		all = append(all, seg.recs...)
	}
	t := tallyOf(all)
	rc.attempted, rc.failed = int64(t.offered), int64(t.bad())
	rc.e2e.set("setup_s", median(setups))
	rc.e2e.set("ops_per_s", median(rates))
	rc.e2e.set("cpu_us_per_op", median(cpus))
	rc.e2e.set("delivery_ratio", float64(t.recovered)/float64(t.sent))
	rc.e2e.set("deadline_ok_ratio", float64(t.onTime)/float64(t.offered))
	rc.note("box_speed=%.3f raw: ops_per_s=%.4g cpu_us_per_op=%.6g", median(speeds), median(rawRates), median(rawCPUs))
	rc.note("frames offered=%d decoded=%d failed=%d refused=%d shed=%d payloads=%d/%d latency_samples=%d p50=%.2fms p90=%.2fms",
		t.offered, t.decoded, t.failed, t.refused, t.shed, t.recovered, t.sent,
		len(t.latMS), quantile(t.latMS, 0.5), quantile(t.latMS, 0.9))
	return nil
}
