package choir

import (
	"context"
	"math"
	"math/cmplx"
	"testing"

	"choir/internal/lora"
)

func TestUserSegsOrientations(t *testing.T) {
	d := MustNew(DefaultConfig(lora.DefaultParams()))
	u := &User{Offset: 10, Symbols: []int{100, 150, 200}}
	syncTail := 64

	// Late transmitter (boundary in the first half): head carries the
	// previous symbol, tail carries this window's.
	segs := d.appendUserSegs(nil, u, 1, 20, 3, syncTail)
	if len(segs) != 2 {
		t.Fatalf("late: %d segs", len(segs))
	}
	if segs[0].lo != 0 || segs[0].hi != 20 || segs[1].lo != 20 || segs[1].hi != d.n {
		t.Errorf("late: seg ranges %+v", segs)
	}
	wantHead := math.Mod(float64(100)+10, float64(d.n)) // sym[w-1]+offset
	wantTail := math.Mod(float64(150)+10, float64(d.n)) // sym[w]+offset
	if segs[0].f != wantHead || segs[1].f != wantTail {
		t.Errorf("late: tones %+v, want %g / %g", segs, wantHead, wantTail)
	}

	// Early transmitter (boundary in the second half): head carries this
	// window's symbol, tail the next one's.
	segs = d.appendUserSegs(nil, u, 1, 240, 3, syncTail)
	wantHead = math.Mod(float64(150)+10, float64(d.n))
	wantTail = math.Mod(float64(200)+10, float64(d.n))
	if segs[0].f != wantHead || segs[1].f != wantTail {
		t.Errorf("early: tones %+v, want %g / %g", segs, wantHead, wantTail)
	}

	// Window 0 with a late transmitter: head comes from the sync word.
	segs = d.appendUserSegs(nil, u, 0, 20, 3, syncTail)
	if segs[0].f != math.Mod(float64(syncTail)+10, float64(d.n)) {
		t.Errorf("window 0 head tone %+v", segs[0])
	}

	// Last window with an early transmitter: the next symbol is past the
	// frame, so only the head segment remains.
	segs = d.appendUserSegs(nil, u, 2, 240, 3, syncTail)
	if len(segs) != 1 || segs[0].hi != 240 {
		t.Errorf("frame-end segs %+v", segs)
	}
}

func TestMainSeg(t *testing.T) {
	d := MustNew(DefaultConfig(lora.DefaultParams()))
	if lo, hi := d.mainSeg(20); lo != 20 || hi != d.n {
		t.Errorf("late mainSeg = [%d,%d)", lo, hi)
	}
	if lo, hi := d.mainSeg(240); lo != 0 || hi != 240 {
		t.Errorf("early mainSeg = [%d,%d)", lo, hi)
	}
}

func TestFitSegmentsRecoversTwoSegmentSignal(t *testing.T) {
	d := MustNew(DefaultConfig(lora.DefaultParams()))
	n := d.n
	// Construct: tone A over [0,100) at 30.3 bins, tone B over [100,n) at
	// 77.7 bins, with distinct complex gains.
	ha, hb := complex(0.8, 0.3), complex(-0.2, 0.9)
	x := make([]complex128, n)
	for i := 0; i < n; i++ {
		var f float64
		var h complex128
		if i < 100 {
			f, h = 30.3, ha
		} else {
			f, h = 77.7, hb
		}
		s, c := math.Sincos(2 * math.Pi * f / float64(n) * float64(i))
		x[i] = h * complex(c, s)
	}
	regs := []segReg{{f: 30.3, lo: 0, hi: 100}, {f: 77.7, lo: 100, hi: n}}
	hs := d.fitSegments(x, regs)
	if cmplx.Abs(hs[0]-ha) > 1e-9 || cmplx.Abs(hs[1]-hb) > 1e-9 {
		t.Errorf("fitSegments = %v, want [%v %v]", hs, ha, hb)
	}
	// Subtracting both reconstructions must zero the signal.
	for j, r := range regs {
		subtractSeg(x, d.slotTone(j, r.f), r, hs[j])
	}
	var e float64
	for _, v := range x {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	if e > 1e-15 {
		t.Errorf("residual energy %g after exact subtraction", e)
	}
}

func TestEstimateBoundariesFindsTimingOffset(t *testing.T) {
	// A single user with a known whole+fractional delay: after decode, the
	// boundary estimate must sit at (delay mod N).
	p := lora.DefaultParams()
	for _, delay := range []float64{12.0, 40.5, -20.0} {
		spec := collisionSpec{
			params:   p,
			payloads: [][]byte{[]byte("boundary")},
			ppms:     []float64{6},
			timings:  []float64{delay / p.Bandwidth},
			gainsDBm: []float64{0},
			noiseDBm: -40,
			seed:     4,
		}
		sig := synthesize(t, spec)
		d := MustNew(DefaultConfig(p))
		ests := d.estimatePreamble(sig)
		if len(ests) != 1 {
			t.Fatalf("delay %g: %d users", delay, len(ests))
		}
		users := []*User{{Offset: ests[0].offset, Gain: ests[0].gain, Symbols: make([]int, 24)}}
		for i := range users[0].Symbols {
			users[0].Symbols[i] = -1
		}
		// Initialize symbols via the standard path; the decode leaves the
		// frame's dechirped data windows on the decoder.
		res, err := d.Decode(context.Background(), sig, 8)
		if err != nil {
			t.Fatal(err)
		}
		copy(users[0].Symbols, res.Users[0].Symbols)
		bounds := d.estimateBoundaries(d.dataWins, 24, users)
		want := math.Mod(delay+float64(p.N()), float64(p.N()))
		got := float64(bounds[0])
		// Circular distance, tolerance a few samples (scan step 2 plus
		// segment-edge softness).
		diff := math.Abs(got - want)
		if diff > float64(p.N())/2 {
			diff = float64(p.N()) - diff
		}
		if diff > 4 {
			t.Errorf("delay %g: boundary %g, want %g", delay, got, want)
		}
	}
}

func TestICSymbolPassFixesInjectedError(t *testing.T) {
	// Decode a clean 2-user collision, corrupt one symbol decision, and
	// verify one IC sweep repairs it.
	spec := defaultSpec(2, 1)
	sig := synthesize(t, spec)
	d := MustNew(DefaultConfig(spec.params))
	res, err := d.Decode(context.Background(), sig, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DecodedPayloads()) != 2 {
		t.Skip("baseline decode incomplete at this seed")
	}
	users := res.Users
	truth := append([]int(nil), users[0].Symbols...)
	users[0].Symbols[5] = (truth[5] + 37) % spec.params.N()
	bounds := d.estimateBoundaries(d.dataWins, len(truth), users)
	d.icSymbolPass(d.dataWins[5], 5, users, bounds)
	if users[0].Symbols[5] != truth[5] {
		t.Errorf("IC did not repair injected error: %d vs %d", users[0].Symbols[5], truth[5])
	}
}
