package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"choir/internal/backend"
	ichoir "choir/internal/choir"
	"choir/internal/dsp"
	"choir/internal/exec"
	"choir/internal/gateway"
	"choir/internal/gateway/journal"
	"choir/internal/lora"
	"choir/internal/sim/engine"
	"choir/internal/sim/interfere"
	"choir/internal/trace"
)

// This file is the traced run: the workload once more with spans kept and
// obs on, then direct calls into each layer the workload touches. Layers are
// measured from outside — by timing public functions, by counters kept here
// and by what the program already exposes — so the program's own code is
// exactly what the untraced run measured.

// timeLoop calls fn until at least 20 ms and 16 calls have passed and
// returns the mean time per call in ns.
func timeLoop(fn func()) float64 {
	fn() // lazy set-up is not the steady state
	start := time.Now()
	n := 0
	for n < 16 || time.Since(start) < 20*time.Millisecond {
		fn()
		n++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// fastestDiffUS runs a and b alternately `pairs` times each, swapping which
// goes first, and returns a's fastest run minus b's in µs. Both do the same
// decode of tens of ms and differ by tens of µs; on a shared box only the
// least disturbed run of each says anything about that.
func fastestDiffUS(pairs int, a, b func()) float64 {
	timed := func(fn func(), best *time.Duration) {
		start := time.Now()
		fn()
		if d := time.Since(start); *best == 0 || d < *best {
			*best = d
		}
	}
	var fa, fb time.Duration
	for i := 0; i < pairs; i++ {
		if i%2 == 0 {
			timed(a, &fa)
			timed(b, &fb)
		} else {
			timed(b, &fb)
			timed(a, &fa)
		}
	}
	return float64(fa-fb) / 1e3
}

// traceGateway is a gateway workload's traced run.
func traceGateway(rc *runCtx, spec gwSpec) error {
	ref, err := runSegment(rc, spec, rc.budget(0.15), nil)
	if err != nil {
		return err
	}
	seg, err := soundSegment(rc, spec, rc.budget(0.35), rc.rec)
	if err != nil {
		return err
	}
	t, rt := tallyOf(seg.recs), tallyOf(ref.recs)
	if t.terminal == 0 || rt.terminal == 0 {
		return fmt.Errorf("no frame reached an outcome")
	}
	rc.attempted, rc.failed = int64(t.offered), int64(t.bad())
	frames := float64(t.terminal)
	L := rc.layer

	admit := "gateway.admit"
	if !spec.tcp {
		admit = "gateway.submit"
	}
	L.set("gateway.admit_us_per_frame", rc.rec.meanUS(admit))
	L.set("gateway.deliver_us_per_frame", rc.rec.meanUS("gateway.deliver"))
	qw := seg.snap.Histograms["gateway.queue_wait_ns"]
	L.set("gateway.queue_wait_p50_ms", qw.P50/1e6)
	L.set("gateway.queue_wait_p90_ms", qw.P90/1e6)
	L.set("gateway.latency_p50_ms", quantile(t.latMS, 0.5))
	L.set("gateway.latency_p90_ms", quantile(t.latMS, 0.9))
	if p := tailPercentile(len(t.latMS)); p > 0 {
		L.set("gateway.latency_tail_pct", float64(p))
		L.set("gateway.latency_tail_ms", quantile(t.latMS, float64(p)/100))
	}
	L.set("gateway.latency_max_ms", quantile(t.latMS, 1))
	L.set("gateway.latency_samples", float64(len(t.latMS)))
	L.set("gateway.gen_late_p99_ms", quantile(sortedCopy(seg.genLate), 0.99))
	L.set("gateway.backlog_end", float64(seg.backlogEnd))
	L.set("gateway.attempts_per_frame", float64(t.attempts)/frames)
	L.set("gateway.first_rung_ratio", float64(t.firstRung)/frames)
	L.set("gateway.refused", float64(t.refused))
	L.set("gateway.shed", float64(t.shed))
	L.set("gateway.failed", float64(t.failed))
	L.set("gateway.allocs_per_frame", float64(seg.mallocs)/frames)

	// The decoder's own stage timers nest (inclusive times); counts are
	// calls, so fft_calls_per_frame is the transforms one frame costs.
	h, c := seg.snap.Histograms, seg.snap.Counters
	for _, s := range stageNames {
		L.set("choir.stage."+s+"_ms_per_frame", float64(h["choir.stage."+s+"_ns"].Sum)/1e6/frames)
	}
	for _, s := range stageCounted {
		L.set("choir.stage."+s+"_calls_per_frame", float64(h["choir.stage."+s+"_ns"].Count)/frames)
	}
	L.set("choir.users_detected_per_frame", float64(c["choir.users.detected"])/frames)
	L.set("choir.users_decoded_ratio", float64(c["choir.users.decoded"])/float64(max(c["choir.users.detected"], 1)))
	L.set("choir.crc_failed_per_frame", float64(c["choir.users.crc_failed"])/frames)
	L.set("dsp.fft_share", float64(h["choir.stage.fft_ns"].Sum)/float64(max(h["choir.decode_ns"].Sum, 1)))
	L.set("obs.trace_overhead_ratio",
		(float64(seg.cpu)/frames*seg.speed)/(float64(ref.cpu)/float64(rt.terminal)*ref.speed))
	L.set("bench.box_speed", seg.speed)

	// Probes share one pool, synthesised like the workload's.
	start := time.Now()
	fp := buildPool(rc.seed, spec.heavy, rc.scale, rc.rec)
	L.set("sim.synthesize_ms_per_frame", float64(time.Since(start).Nanoseconds())/1e6/float64(len(fp.frames)))
	probeLora(rc, fp)
	probeDSP(rc)
	if spec.tcp {
		if err := probeTrace(rc, fp); err != nil {
			return err
		}
		if err := probeJournal(rc, fp); err != nil {
			return err
		}
	}
	if spec.rate > 0 {
		return probeSweep(rc, spec, rc.budget(0.4/float64(len(sweepRates))))
	}
	if err := probeChoir(rc, fp, spec.heavy); err != nil {
		return err
	}
	bc := backendCache{}
	if err := probeBackends(rc, fp, bc, rc.budget(0.15)); err != nil {
		return err
	}
	if err := probeGatewayCosts(rc, spec, fp, bc, rc.budget(0.1)); err != nil {
		return err
	}
	if spec.heavy {
		return probeBatch(rc, spec, rc.budget(0.07))
	}
	return nil
}

// probeTrace times the wire format both ways over the pool.
func probeTrace(rc *runCtx, fp *framePool) error {
	enc, size, err := fp.encode(rc.rec)
	if err != nil {
		return err
	}
	var total time.Duration
	for i := range fp.frames {
		f := &fp.frames[i]
		start := time.Now()
		_, samples, err := trace.ReadFramed(bytes.NewReader(f.wire))
		total += time.Since(start)
		if err != nil || len(samples) != len(f.samples) {
			rc.problem("trace: frame %d did not survive encode/decode (%v)", i, err)
		}
	}
	rc.layer.set("trace.encode_us_per_frame", float64(enc.Nanoseconds())/1e3)
	rc.layer.set("trace.decode_us_per_frame", float64(total.Nanoseconds())/1e3/float64(len(fp.frames)))
	rc.layer.set("trace.bytes_per_frame", size)
	return nil
}

// probeJournal drives the write-ahead log directly: the write path a
// journaled admission pays, and the read path a restart would.
func probeJournal(rc *runCtx, fp *framePool) error {
	dir, err := os.MkdirTemp(rc.outDir, "journal-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return err
	}
	n := len(fp.frames)
	var app, comp time.Duration
	for i := range fp.frames {
		f := &fp.frames[i]
		id := uint64(i + 1)
		start := time.Now()
		err := w.Append(id, f.header, f.samples)
		mid := time.Now()
		if err == nil {
			err = w.Complete(id)
		}
		end := time.Now()
		if err != nil {
			w.Close()
			return err
		}
		rc.rec.add("journal.append", "journal", int64(id), -1, start, mid)
		rc.rec.add("journal.complete", "journal", int64(id), -1, mid, end)
		app += mid.Sub(start)
		comp += end.Sub(mid)
	}
	if err := w.Close(); err != nil {
		return err
	}
	var size int64
	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	for _, s := range segs {
		if fi, err := os.Stat(s); err == nil {
			size += fi.Size()
		}
	}
	start := time.Now()
	incomplete, completed, _, err := journal.Scan(dir)
	scan := time.Since(start)
	if err != nil {
		return err
	}
	if len(incomplete) != 0 || len(completed) != n {
		rc.problem("journal: scan found %d incomplete, %d completed of %d settled frames", len(incomplete), len(completed), n)
	}
	rc.layer.set("journal.append_us_per_frame", float64(app.Nanoseconds())/1e3/float64(n))
	rc.layer.set("journal.complete_us_per_frame", float64(comp.Nanoseconds())/1e3/float64(n))
	rc.layer.set("journal.bytes_per_frame", float64(size)/float64(n))
	rc.layer.set("journal.scan_ms_per_kframe", float64(scan.Nanoseconds())/1e6/float64(n)*1e3)
	return nil
}

// backendCache builds each (backend, PHY) once per run.
type backendCache map[string]backend.Backend

func (bc backendCache) get(name string, p lora.Params) (backend.Backend, error) {
	key := fmt.Sprintf("%s/%d", name, p.SF)
	if b, ok := bc[key]; ok {
		return b, nil
	}
	b, err := backend.New(name, p)
	if err == nil {
		bc[key] = b
	}
	return b, err
}

// probeBackends decodes the pool directly through every registered
// alternative, each seeing the same seeded frame order. The reference
// backend walks a whole pass (its times are the choir layer's per-cell
// rows); the others stop when their share of the budget is spent.
func probeBackends(rc *runCtx, fp *framePool, bc backendCache, budget time.Duration) error {
	order := newFrameOrder(rc.seed, fp.all()).take(max(fp.cells, 8))
	res := &ichoir.Result{}
	ctx := context.Background()
	for _, name := range backendNames {
		var (
			spent           time.Duration
			recovered, sent int
			n               int
			warm            = map[lora.SpreadingFactor]bool{}
			began           = time.Now()
		)
		for k, fi := range order {
			f := &fp.frames[fi]
			if name != "choir" && k >= 2 && time.Since(began) > budget/time.Duration(len(backendNames)) {
				break
			}
			b, err := bc.get(name, f.header.Params)
			if err != nil {
				return err
			}
			seed := exec.DeriveSeed(rc.seed, dimProbe, uint64(k))
			if !warm[f.header.Params.SF] {
				warm[f.header.Params.SF] = true
				b.Reseed(seed)
				_ = b.DecodeCtxInto(ctx, res, f.samples, f.header.PayloadLen) // warm decode: a failure repeats below
			}
			b.Reseed(seed)
			start := time.Now()
			err = b.DecodeCtxInto(ctx, res, f.samples, f.header.PayloadLen)
			end := time.Now()
			rc.rec.add("backend.decode", "backend", int64(fi), -1, start, end)
			spent += end.Sub(start)
			n++
			sent += len(f.payloads)
			if err == nil {
				r, _ := matchPayloads(res.DecodedPayloads(), f.payloads)
				recovered += r
			}
			if name == "choir" && fp.heavy {
				if row, ok := cellRow(heavyCells[f.cell].sf, heavyCells[f.cell].users); ok {
					rc.layer.set(row, float64(end.Sub(start).Nanoseconds())/1e6)
				}
			}
		}
		rc.layer.set("backend."+name+".decode_ms_per_frame", float64(spent.Nanoseconds())/1e6/float64(n))
		rc.layer.set("backend."+name+".recovery", float64(recovered)/float64(sent))
	}

	// Dispatch: the same frame and seed through the interface and through
	// the concrete decoder, paired.
	f := &fp.frames[order[0]]
	b, err := bc.get("choir", f.header.Params)
	if err != nil {
		return err
	}
	dec := backend.Decoder(b)
	seed := exec.DeriveSeed(rc.seed, dimProbe)
	rc.layer.set("backend.dispatch_overhead_us", fastestDiffUS(6,
		func() { b.Reseed(seed); _ = b.DecodeCtxInto(ctx, res, f.samples, f.header.PayloadLen) },
		func() { dec.Reseed(seed); _, _ = dec.DecodeInto(res, f.samples, f.header.PayloadLen) }))
	return nil
}

// probeChoir measures the decoder's steady-state allocations and what the
// streaming entry point costs when every sample is already there.
func probeChoir(rc *runCtx, fp *framePool, heavy bool) error {
	f := &fp.frames[0]
	dec, err := ichoir.New(ichoir.DefaultConfig(f.header.Params))
	if err != nil {
		return err
	}
	res := &ichoir.Result{}
	ctx := context.Background()
	decode := func() { dec.Reseed(1); _, _ = dec.DecodeInto(res, f.samples, f.header.PayloadLen) }
	decode()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	const runs = 3
	for i := 0; i < runs; i++ {
		decode()
	}
	runtime.ReadMemStats(&ms1)
	rc.layer.set("choir.allocs_per_decode_into", float64(ms1.Mallocs-ms0.Mallocs)/runs)
	if heavy {
		return nil // streaming ingest is the light workloads' path
	}
	ready := func(context.Context, int) error { return nil }
	rc.layer.set("choir.incremental_overhead_us", fastestDiffUS(6,
		func() {
			dec.Reseed(1)
			_ = dec.DecodeIncrementalCtxInto(ctx, res, f.samples, f.header.PayloadLen, ready)
		},
		func() { dec.Reseed(1); _ = dec.DecodeCtxInto(ctx, res, f.samples, f.header.PayloadLen) }))
	return nil
}

// probeDSP times the kernels on seeded dechirped windows. The decoder pads
// 16×, so SF7…SF10 transform at 2 048…16 384 points.
func probeDSP(rc *runCtx) {
	rng := rand.New(rand.NewPCG(exec.DeriveSeed(rc.seed, dimProbe), 0xD5B))
	window := func(n int) []complex128 {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		// one tone above the noise, as a dechirped symbol has
		dsp.Add(x, dsp.Scale(dsp.Tone(nil, n, 0.1337, 0), 8))
		return x
	}
	us := func(ns float64) float64 { return ns / 1e3 }
	for _, n := range []int{2048, 4096, 8192, 16384} {
		f := dsp.NewFFT(n)
		x := window(n / 16)
		dst := make([]complex128, n)
		rc.layer.set(fmt.Sprintf("dsp.fft_pruned_us.n%d", n), us(timeLoop(func() { f.TransformPruned(dst, x) })))
		if n != 2048 && n != 8192 {
			continue
		}
		mags := make([]float64, n)
		rc.layer.set(fmt.Sprintf("dsp.spectrum_into_us.n%d", n), us(timeLoop(func() { f.SpectrumInto(mags, dst, x) })))
		if n == 2048 {
			const lanes = 8
			srcs := make([][]complex128, lanes)
			for i := range srcs {
				srcs[i] = window(n / 16)
			}
			bs := dsp.NewBatchSpectrum(f)
			rc.layer.set("dsp.batch_spectrum_us_per_lane.n2048", us(timeLoop(func() { bs.Compute(srcs) }))/lanes)
			continue
		}
		padded := make([]complex128, n)
		rc.layer.set("dsp.fft_full_us.n8192", us(timeLoop(func() {
			clear(padded)
			copy(padded, x)
			f.Transform(dst, padded)
		})))
		scratch := make([]float64, n)
		floor := dsp.NoiseFloorScratch(mags, scratch)
		rc.layer.set("dsp.noise_floor_us.n8192", us(timeLoop(func() { dsp.NoiseFloorScratch(mags, scratch) })))
		var ps dsp.PeakScratch
		pc := dsp.PeakConfig{Pad: 16, MinSeparation: 0.9, Threshold: 5 * floor, Max: 16}
		rc.layer.set("dsp.find_peaks_us.n8192", us(timeLoop(func() { dsp.FindPeaksScratch(&ps, mags, pc) })))
	}
}

// probeLora times the modem, the generator's side of a frame.
func probeLora(rc *runCtx, fp *framePool) {
	f := &fp.frames[0]
	p, payload := f.header.Params, f.payloads[0]
	m := lora.MustModem(p)
	rc.layer.set("lora.modulate_us_per_frame", timeLoop(func() { m.Modulate(payload) })/1e3)
	syms := lora.EncodeSymbols(payload, p)
	rc.layer.set("lora.decode_symbols_us_per_frame", timeLoop(func() { _, _, _ = lora.DecodeSymbols(syms, len(payload), p) })/1e3)
}

// oneInFlight is a gateway driven one frame at a time, for paired probes.
type oneInFlight struct {
	g    *gateway.Gateway
	jdir string
}

func newOneInFlight(rc *runCtx, journaled bool) (*oneInFlight, error) {
	o := &oneInFlight{}
	cfg := gateway.Config{Workers: 1, Policy: gateway.ShedReject, Seed: exec.DeriveSeed(rc.seed, dimGateway)}
	if journaled {
		dir, err := os.MkdirTemp(rc.outDir, "journal-pair-")
		if err != nil {
			return nil, err
		}
		o.jdir, cfg.JournalDir = dir, dir
	}
	g, err := gateway.New(cfg)
	if err != nil {
		return nil, err
	}
	o.g = g
	return o, nil
}

// roundTrip submits f, which must get ID want, and waits for its outcome.
func (o *oneInFlight) roundTrip(f *frame, want uint64) (time.Duration, error) {
	start := time.Now()
	id, err := o.g.Submit(context.Background(), "probe", f.header, f.samples)
	if err != nil {
		return 0, err
	}
	out := <-o.g.Outcomes()
	if id != want || out.FrameID != want {
		return 0, fmt.Errorf("frame got ID %d and outcome %d, expected %d", id, out.FrameID, want)
	}
	return time.Since(start), nil
}

func (o *oneInFlight) close() {
	_ = o.g.Drain(context.Background()) // nothing in flight; the journal dir goes either way
	for range o.g.Outcomes() {
	}
	if o.jdir != "" {
		os.RemoveAll(o.jdir)
	}
}

// probeGatewayCosts decodes each frame three ways with the seed the gateway
// would use — directly, through a plain gateway, through a journaled one —
// and reports the median paired differences: what the gateway adds to a
// decode, and what the journal adds to the gateway.
func probeGatewayCosts(rc *runCtx, spec gwSpec, fp *framePool, bc backendCache, budget time.Duration) error {
	plain, err := newOneInFlight(rc, false)
	if err != nil {
		return err
	}
	defer plain.close()
	var journaled *oneInFlight
	if spec.journal {
		if journaled, err = newOneInFlight(rc, true); err != nil {
			return err
		}
		defer journaled.close()
	}
	res := &ichoir.Result{}
	gwSeed := exec.DeriveSeed(rc.seed, dimGateway)
	var (
		over, jcost []float64
		warmed      = map[lora.SpreadingFactor]bool{}
		id          uint64 // both gateways have had this many submissions
		began       = time.Now()
	)
	for k, fi := range newFrameOrder(rc.seed, fp.all()).take(64 * fp.cells) {
		f := &fp.frames[fi]
		warm := !warmed[f.header.Params.SF] // builds the SF's plans and pools; not recorded
		warmed[f.header.Params.SF] = true
		if !warm && len(over) >= 3 && time.Since(began) > budget {
			break
		}
		b, err := bc.get("choir", f.header.Params)
		if err != nil {
			return err
		}
		// The frame gets the same ID in both gateways, so the direct decode
		// can use the seed that ID implies: all three do the same work.
		id++
		var dDirect, dPlain, dJ time.Duration
		ways := []func() error{
			func() error {
				b.Reseed(exec.DeriveSeed(gwSeed, id, 0))
				start := time.Now()
				_ = b.DecodeCtxInto(context.Background(), res, f.samples, f.header.PayloadLen) // timing only
				dDirect = time.Since(start)
				return nil
			},
			func() (err error) { dPlain, err = plain.roundTrip(f, id); return },
		}
		if journaled != nil {
			ways = append(ways, func() (err error) { dJ, err = journaled.roundTrip(f, id); return })
		}
		for i := range ways { // rotate who goes first: the later ones find the samples cached
			if err := ways[(i+k)%len(ways)](); err != nil {
				return err
			}
		}
		if warm {
			continue
		}
		over = append(over, float64(dPlain-dDirect)/1e3)
		if journaled != nil {
			jcost = append(jcost, float64(dJ-dPlain)/1e3)
		}
	}
	rc.layer.set("gateway.overhead_us_per_frame", median(over))
	if journaled != nil {
		rc.layer.set("journal.e2e_cost_us_per_frame", median(jcost))
	}
	return nil
}

// probeSweep steps the open loop through sweepRates and finds the highest
// that still meets the deadline without a growing backlog.
func probeSweep(rc *runCtx, spec gwSpec, step time.Duration) error {
	best := 0
	for _, r := range sweepRates {
		s := spec
		s.rate = float64(r)
		seg, err := runSegment(rc, s, step, nil)
		if err != nil {
			return err
		}
		t := tallyOf(seg.recs)
		rc.layer.set(fmt.Sprintf("gateway.sweep.p50_ms.r%d", r), quantile(t.latMS, 0.5))
		rc.layer.set(fmt.Sprintf("gateway.sweep.p90_ms.r%d", r), quantile(t.latMS, 0.9))
		miss := 1 - float64(t.onTime)/float64(t.offered)
		// a backlog above an eighth of the queue at the last send is growing
		if miss <= 0.01 && seg.backlogEnd <= 8 {
			best = r
		}
	}
	rc.layer.set("gateway.max_rate_fps", float64(best))
	return nil
}

// probeBatch compares Batch 8 with Batch 1 on the heavy pool with enough
// frames in flight for a batch to form.
func probeBatch(rc *runCtx, spec gwSpec, budget time.Duration) error {
	rate := func(batch int) (float64, error) {
		s := spec
		s.batch, s.inflight = batch, 16
		seg, err := runSegment(rc, s, budget, nil)
		if err != nil {
			return 0, err
		}
		return float64(tallyOf(seg.recs).terminal) / seg.wall.Seconds(), nil
	}
	b1, err := rate(1)
	if err != nil {
		return err
	}
	b8, err := rate(8)
	if err != nil {
		return err
	}
	rc.layer.set("gateway.batch8_speedup", b8/b1)
	return nil
}

// probeEngine fills the engine, mac and interfere rows.
func probeEngine(rc *runCtx, cfg engine.Config) error {
	ctx := context.Background()
	layout := cfg
	layout.Slots = 1
	start := time.Now()
	if _, err := engine.Run(ctx, layout); err != nil {
		return err
	}
	end := time.Now()
	rc.rec.add("engine.layout", "engine", -1, -1, start, end)
	rc.layer.set("engine.layout_s", end.Sub(start).Seconds())

	if runtime.NumCPU() >= 2 {
		quarter := cfg
		quarter.Slots = max(1, cfg.Slots/4)
		wall := func(workers int) (float64, error) {
			quarter.Workers = workers
			start := time.Now()
			_, err := engine.Run(ctx, quarter)
			return time.Since(start).Seconds(), err
		}
		w1, err := wall(1)
		if err != nil {
			return err
		}
		w2, err := wall(2)
		if err != nil {
			return err
		}
		rc.layer.set("engine.workers1_wall_ratio", w1/w2)
	} else {
		rc.note("engine.workers1_wall_ratio omitted: one CPU")
	}

	slotNS, err := checkDrivers(rc, cfg)
	if err != nil {
		return err
	}
	rc.layer.set("engine.slot_driver_ns_per_event", slotNS)

	rx := cityReceiver()
	rc.layer.set("mac.per_tx_prob_ns", timeLoop(func() {
		for k := 1; k <= 30; k++ {
			sink += rx.PerTxProb(k)
		}
	})/30)
	if len(cfg.Foreign) == 0 {
		// Sparse city: the event queue is the hot structure. One op is a
		// PopMin plus the Set that reschedules the popped node.
		n := max(1024, int(1_000_000*rc.scale))
		q := engine.NewEventQueue(n)
		rng := rand.New(rand.NewPCG(exec.DeriveSeed(rc.seed, dimProbe), 0xE0))
		for i := 0; i < n; i++ {
			q.Set(int32(i), rng.Int64N(1<<20))
		}
		ops := n / 2
		start := time.Now()
		for i := 0; i < ops; i++ {
			id, slot := q.PopMin()
			q.Set(id, slot+1+rng.Int64N(1<<16))
		}
		rc.layer.set("engine.queue_ns_per_op", float64(time.Since(start).Nanoseconds())/float64(ops))
	} else {
		cm := interfere.New(rx, 6)
		foreign := [6]int32{1, 0, 2, 0, 1, 0}
		rc.layer.set("interfere.per_tx_prob_ns", timeLoop(func() {
			for k := 1; k <= 30; k++ {
				for sf := 0; sf < 6; sf++ {
					sink += cm.PerTxProbForeign(k, sf, &foreign)
				}
			}
		})/180)
	}
	return nil
}

// sink keeps the compiler from discarding a timed pure call.
var sink float64
