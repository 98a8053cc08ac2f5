package sensor

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"choir/internal/geo"
)

func testBuilding(seed uint64) *geo.Building {
	rng := rand.New(rand.NewPCG(seed, seed))
	return geo.NewBuilding(geo.DefaultBuilding(geo.Point{}), rng)
}

func TestFieldGradientIsRadial(t *testing.T) {
	b := testBuilding(1)
	f := TemperatureField()
	// A sensor near the facade must read closer to the outdoor value than
	// one near the core (deterministic component).
	var inner, outer int
	innerD, outerD := math.Inf(1), 0.0
	for i := 0; i < b.NumSensors(); i++ {
		if b.Floor(i) != 0 {
			continue
		}
		d := b.DistanceFromCenter(i)
		if d < innerD {
			inner, innerD = i, d
		}
		if d > outerD {
			outer, outerD = i, d
		}
	}
	vi := f.At(b, inner, nil)
	vo := f.At(b, outer, nil)
	if math.Abs(vo-f.Outdoor) >= math.Abs(vi-f.Outdoor) {
		t.Errorf("facade sensor (%g) not closer to outdoor %g than core sensor (%g)", vo, f.Outdoor, vi)
	}
}

func TestFieldClampsToRange(t *testing.T) {
	b := testBuilding(2)
	f := Field{Outdoor: 1000, Core: -1000, NoiseSigma: 0, Min: 0, Max: 100}
	for i := 0; i < b.NumSensors(); i++ {
		v := f.At(b, i, nil)
		if v < f.Min || v > f.Max {
			t.Fatalf("sensor %d value %g outside [%g, %g]", i, v, f.Min, f.Max)
		}
	}
}

func TestQuantizeRoundTripProperty(t *testing.T) {
	f := TemperatureField()
	step := (f.Max - f.Min) / float64((1<<Bits)-1)
	check := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		v := f.Min + math.Mod(math.Abs(raw), f.Max-f.Min)
		code := f.Quantize(v)
		back := f.Dequantize(code)
		return math.Abs(back-v) <= step/2+1e-9
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeSaturates(t *testing.T) {
	f := TemperatureField()
	if f.Quantize(f.Min-100) != 0 {
		t.Error("below-range value did not clamp to 0")
	}
	if f.Quantize(f.Max+100) != (1<<Bits)-1 {
		t.Error("above-range value did not clamp to max code")
	}
}

func TestMSBChunkAndReconstruct(t *testing.T) {
	code := uint16(0b101101110010)
	if got := MSBChunk(code, 4); got != 0b1011 {
		t.Errorf("MSBChunk = %b", got)
	}
	if got := MSBChunk(code, Bits); got != code {
		t.Errorf("full chunk = %b", got)
	}
	// Reconstruction centres the unknown bits.
	rec := FromMSBChunk(0b1011, 4)
	if rec>>8 != 0b1011 {
		t.Errorf("reconstructed code %b lost its MSBs", rec)
	}
	if FromMSBChunk(0, 0) != 1<<(Bits-1) {
		t.Error("zero-bit reconstruction should be mid-scale")
	}
}

func TestMSBChunkPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MSBChunk(13 bits) did not panic")
		}
	}()
	MSBChunk(0, 13)
}

func TestSharedMSBs(t *testing.T) {
	cases := []struct {
		codes []uint16
		want  int
	}{
		{[]uint16{0b101100000000, 0b101100000001}, 11},
		{[]uint16{0b101100000000, 0b101111111111}, 4},
		{[]uint16{0b100000000000, 0b000000000000}, 0},
		{[]uint16{0b111111111111, 0b111111111111}, 12},
		{[]uint16{42}, 12},
		{nil, 0},
	}
	for _, c := range cases {
		if got := SharedMSBs(c.codes); got != c.want {
			t.Errorf("SharedMSBs(%b) = %d, want %d", c.codes, got, c.want)
		}
	}
}

func TestSharedMSBsReconstructionBoundProperty(t *testing.T) {
	// The reconstruction from the shared chunk must be within half the
	// chunk's quantization step of every member's value.
	f := TemperatureField()
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		n := 2 + int(seed%8)
		base := f.Min + rng.Float64()*(f.Max-f.Min)
		codes := make([]uint16, n)
		for i := range codes {
			v := base + rng.NormFloat64()*0.5
			codes[i] = f.Quantize(v)
		}
		shared := SharedMSBs(codes)
		rec := FromMSBChunk(MSBChunk(codes[0], shared), shared)
		span := uint16(0)
		if shared < Bits {
			span = 1<<(Bits-shared) - 1
		}
		for _, c := range codes {
			var diff uint16
			if c > rec {
				diff = c - rec
			} else {
				diff = rec - c
			}
			if span > 0 && diff > span {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupPartitionsAllSensors(t *testing.T) {
	b := testBuilding(3)
	rng := rand.New(rand.NewPCG(4, 4))
	for _, strat := range []GroupStrategy{GroupRandom, GroupByFloor, GroupByCenterDistance} {
		teams := Group(b, strat, 5, rng)
		seen := map[int]bool{}
		total := 0
		for _, team := range teams {
			for _, s := range team {
				if seen[s] {
					t.Fatalf("%v: sensor %d in two teams", strat, s)
				}
				seen[s] = true
				total++
			}
		}
		if total != b.NumSensors() {
			t.Errorf("%v: %d sensors grouped, want %d", strat, total, b.NumSensors())
		}
	}
}

func TestGroupByFloorIsPure(t *testing.T) {
	b := testBuilding(5)
	rng := rand.New(rand.NewPCG(5, 5))
	teams := Group(b, GroupByFloor, b.NumSensors()/b.Floors, rng)
	for ti, team := range teams {
		floor := b.Floor(team[0])
		for _, s := range team {
			if b.Floor(s) != floor {
				t.Errorf("team %d mixes floors", ti)
			}
		}
	}
}

func TestCenterDistanceGroupingBeatsRandom(t *testing.T) {
	// The headline of Fig. 11(a): grouping by distance-from-centre yields
	// lower reconstruction error than random grouping.
	b := testBuilding(6)
	f := TemperatureField()
	meanErr := func(strat GroupStrategy) float64 {
		var sum float64
		cnt := 0
		for trial := uint64(0); trial < 20; trial++ {
			rng := rand.New(rand.NewPCG(trial, 99))
			for _, team := range Group(b, strat, 6, rng) {
				e, _ := TeamError(f, b, team, rng)
				sum += e
				cnt++
			}
		}
		return sum / float64(cnt)
	}
	random := meanErr(GroupRandom)
	center := meanErr(GroupByCenterDistance)
	if center >= random {
		t.Errorf("center-distance error %.4f not below random %.4f", center, random)
	}
}

func TestTeamErrorEmptyTeam(t *testing.T) {
	f := TemperatureField()
	b := testBuilding(7)
	if e, bits := TeamError(f, b, nil, nil); e != 0 || bits != 0 {
		t.Errorf("empty team error = %g bits = %d", e, bits)
	}
}

func TestLargerTeamsLoseResolution(t *testing.T) {
	// Bigger teams span more of the field, share fewer MSBs, and thus lose
	// resolution — the trend of Fig. 10.
	b := testBuilding(8)
	f := TemperatureField()
	meanShared := func(size int) float64 {
		var sum float64
		cnt := 0
		for trial := uint64(0); trial < 30; trial++ {
			rng := rand.New(rand.NewPCG(trial, 5))
			for _, team := range Group(b, GroupRandom, size, rng) {
				if len(team) < size {
					continue
				}
				_, bits := TeamError(f, b, team, rng)
				sum += float64(bits)
				cnt++
			}
		}
		return sum / float64(cnt)
	}
	small := meanShared(2)
	large := meanShared(12)
	if large >= small {
		t.Errorf("shared bits did not shrink with team size: %d-team %.2f vs 2-team %.2f", 12, large, small)
	}
}

func TestStringers(t *testing.T) {
	if Temperature.String() != "temperature" || Humidity.String() != "humidity" {
		t.Error("Kind strings")
	}
	if GroupRandom.String() != "random" || GroupByFloor.String() != "floor" || GroupByCenterDistance.String() != "center-distance" {
		t.Error("GroupStrategy strings")
	}
}
