package geo

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestPointDistance(t *testing.T) {
	a := Point{0, 0, 0}
	b := Point{3, 4, 0}
	if d := a.Distance(b); math.Abs(d-5) > 1e-12 {
		t.Errorf("Distance = %g, want 5", d)
	}
	c := Point{3, 4, 12}
	if d := a.Distance(c); math.Abs(d-13) > 1e-12 {
		t.Errorf("3D Distance = %g, want 13", d)
	}
	if d := a.Distance2D(c); math.Abs(d-5) > 1e-12 {
		t.Errorf("Distance2D = %g, want 5", d)
	}
}

func TestDistanceSymmetryProperty(t *testing.T) {
	check := func(ax, ay, az, bx, by, bz float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e6)
		}
		a := Point{clamp(ax), clamp(ay), clamp(az)}
		b := Point{clamp(bx), clamp(by), clamp(bz)}
		return math.Abs(a.Distance(b)-b.Distance(a)) < 1e-9 && a.Distance(a) == 0
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// paperTestbed is the paper's deployment: a 3.4 × 3.2 km area, three rooftop
// base stations, 100 client locations.
var paperTestbed = Config{Width: 3400, Height: 3200, NumBases: 3, NumSites: 100, BaseHeight: 30, ClientHeight: 1.5}

func TestNewTestbedPlacement(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	cfg := paperTestbed
	tb := NewTestbed(cfg, rng)
	if len(tb.BaseStations) != cfg.NumBases {
		t.Fatalf("bases %d, want %d", len(tb.BaseStations), cfg.NumBases)
	}
	if len(tb.ClientSites) != cfg.NumSites {
		t.Fatalf("sites %d, want %d", len(tb.ClientSites), cfg.NumSites)
	}
	for i, b := range tb.BaseStations {
		if b.X < 0 || b.X > cfg.Width || b.Y < 0 || b.Y > cfg.Height {
			t.Errorf("base %d out of area: %v", i, b)
		}
		if b.Z != cfg.BaseHeight {
			t.Errorf("base %d height %g", i, b.Z)
		}
	}
	for i, s := range tb.ClientSites {
		if s.X < 0 || s.X > cfg.Width || s.Y < 0 || s.Y > cfg.Height {
			t.Errorf("site %d out of area: %v", i, s)
		}
	}
}

func TestTestbedIsReproducible(t *testing.T) {
	a := NewTestbed(paperTestbed, rand.New(rand.NewPCG(7, 7)))
	b := NewTestbed(paperTestbed, rand.New(rand.NewPCG(7, 7)))
	for i := range a.ClientSites {
		if a.ClientSites[i] != b.ClientSites[i] {
			t.Fatalf("site %d differs between identical seeds", i)
		}
	}
}

func TestBuildingSensors(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	cfg := DefaultBuilding(Point{100, 200, 0})
	b := NewBuilding(cfg, rng)
	if b.NumSensors() != cfg.Floors*cfg.SensorsPer {
		t.Fatalf("sensors %d, want %d", b.NumSensors(), cfg.Floors*cfg.SensorsPer)
	}
	floorCount := map[int]int{}
	for i := 0; i < b.NumSensors(); i++ {
		p := b.Sensor(i)
		f := b.Floor(i)
		floorCount[f]++
		if p.X < cfg.Origin.X || p.X > cfg.Origin.X+cfg.Width {
			t.Errorf("sensor %d x=%g outside building", i, p.X)
		}
		if p.Y < cfg.Origin.Y || p.Y > cfg.Origin.Y+cfg.Depth {
			t.Errorf("sensor %d y=%g outside building", i, p.Y)
		}
		wantZ := cfg.Origin.Z + float64(f)*cfg.FloorHeight + 1
		if math.Abs(p.Z-wantZ) > 1e-9 {
			t.Errorf("sensor %d z=%g, want %g", i, p.Z, wantZ)
		}
	}
	for f := 0; f < cfg.Floors; f++ {
		if floorCount[f] != cfg.SensorsPer {
			t.Errorf("floor %d has %d sensors, want %d", f, floorCount[f], cfg.SensorsPer)
		}
	}
}

func TestDistanceFromCenter(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	b := NewBuilding(DefaultBuilding(Point{0, 0, 0}), rng)
	maxPossible := math.Hypot(b.Width/2, b.Depth/2)
	for i := 0; i < b.NumSensors(); i++ {
		d := b.DistanceFromCenter(i)
		if d < 0 || d > maxPossible {
			t.Errorf("sensor %d center distance %g outside [0, %g]", i, d, maxPossible)
		}
	}
	// The centre of floor 0 must be at half extents.
	c := b.Center(0)
	if c.X != b.Width/2 || c.Y != b.Depth/2 {
		t.Errorf("Center = %v", c)
	}
}
