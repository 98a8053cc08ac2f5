// Package geo models the paper's testbed geometry: a 10 km² urban area
// around a university campus with base stations on rooftops, client
// locations spread over streets and buildings, and a multi-floor building
// instrumented with a grid of sensors (Fig. 6).
//
// Coordinates are metres in a local tangent plane; the z axis is height.
package geo

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Point is a location in metres.
type Point struct {
	X, Y, Z float64
}

// Distance returns the 3D Euclidean distance between two points.
func (p Point) Distance(q Point) float64 {
	dx, dy, dz := p.X-q.X, p.Y-q.Y, p.Z-q.Z
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// Distance2D returns the horizontal distance, ignoring height.
func (p Point) Distance2D(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.0f, %.0f, %.1f)", p.X, p.Y, p.Z) }

// Testbed is the simulated deployment area.
type Testbed struct {
	// Width and Height are the area extent in metres (3400 × 3200 in Fig. 6,
	// about 10 km²).
	Width, Height float64
	// BaseStations are the rooftop receiver sites.
	BaseStations []Point
	// ClientSites are candidate client locations.
	ClientSites []Point
}

// Config controls testbed generation.
type Config struct {
	Width, Height float64 // metres
	NumBases      int
	NumSites      int
	BaseHeight    float64 // rooftop height, metres
	ClientHeight  float64 // nominal client height, metres
}

// NewTestbed places base stations near the centre (the campus) and client
// sites uniformly over the area, reproducibly from rng.
func NewTestbed(cfg Config, rng *rand.Rand) *Testbed {
	tb := &Testbed{Width: cfg.Width, Height: cfg.Height}
	for i := 0; i < cfg.NumBases; i++ {
		// Base stations on campus rooftops: cluster within the central third.
		tb.BaseStations = append(tb.BaseStations, Point{
			X: cfg.Width/2 + (rng.Float64()-0.5)*cfg.Width/3,
			Y: cfg.Height/2 + (rng.Float64()-0.5)*cfg.Height/3,
			Z: cfg.BaseHeight,
		})
	}
	for i := 0; i < cfg.NumSites; i++ {
		tb.ClientSites = append(tb.ClientSites, Point{
			X: rng.Float64() * cfg.Width,
			Y: rng.Float64() * cfg.Height,
			Z: cfg.ClientHeight,
		})
	}
	return tb
}

// Building is a multi-floor structure instrumented with sensors, matching
// the 95 m × 40 m four-floor building of Fig. 6(a).
type Building struct {
	Origin        Point   // south-west ground corner
	Width, Depth  float64 // metres (x and y extent)
	Floors        int
	FloorHeight   float64
	SensorsPer    int // sensors per floor
	sensorsByIdx  []Point
	floorBySensor []int
}

// BuildingConfig controls sensor placement.
type BuildingConfig struct {
	Origin      Point
	Width       float64
	Depth       float64
	Floors      int
	FloorHeight float64
	SensorsPer  int
}

// DefaultBuilding matches the paper: 95 × 40 m, four floors, 9 sensors per
// floor (36 total).
func DefaultBuilding(origin Point) BuildingConfig {
	return BuildingConfig{Origin: origin, Width: 95, Depth: 40, Floors: 4, FloorHeight: 3.5, SensorsPer: 9}
}

// NewBuilding creates the building and scatters sensors across each floor
// on a jittered grid.
func NewBuilding(cfg BuildingConfig, rng *rand.Rand) *Building {
	b := &Building{
		Origin: cfg.Origin, Width: cfg.Width, Depth: cfg.Depth,
		Floors: cfg.Floors, FloorHeight: cfg.FloorHeight, SensorsPer: cfg.SensorsPer,
	}
	cols := int(math.Ceil(math.Sqrt(float64(cfg.SensorsPer))))
	rows := (cfg.SensorsPer + cols - 1) / cols
	for f := 0; f < cfg.Floors; f++ {
		placed := 0
		for r := 0; r < rows && placed < cfg.SensorsPer; r++ {
			for c := 0; c < cols && placed < cfg.SensorsPer; c++ {
				jx := (rng.Float64() - 0.5) * cfg.Width / float64(cols) * 0.5
				jy := (rng.Float64() - 0.5) * cfg.Depth / float64(rows) * 0.5
				b.sensorsByIdx = append(b.sensorsByIdx, Point{
					X: cfg.Origin.X + (float64(c)+0.5)*cfg.Width/float64(cols) + jx,
					Y: cfg.Origin.Y + (float64(r)+0.5)*cfg.Depth/float64(rows) + jy,
					Z: cfg.Origin.Z + float64(f)*cfg.FloorHeight + 1,
				})
				b.floorBySensor = append(b.floorBySensor, f)
				placed++
			}
		}
	}
	return b
}

// NumSensors returns the total number of sensors in the building.
func (b *Building) NumSensors() int { return len(b.sensorsByIdx) }

// Sensor returns the location of sensor i.
func (b *Building) Sensor(i int) Point { return b.sensorsByIdx[i] }

// Floor returns the floor index of sensor i.
func (b *Building) Floor(i int) int { return b.floorBySensor[i] }

// Center returns the building's centroid at the given floor.
func (b *Building) Center(floor int) Point {
	return Point{
		X: b.Origin.X + b.Width/2,
		Y: b.Origin.Y + b.Depth/2,
		Z: b.Origin.Z + float64(floor)*b.FloorHeight + 1,
	}
}

// DistanceFromCenter returns sensor i's horizontal distance from the centre
// of its own floor — the grouping feature Fig. 11(a) finds most predictive.
func (b *Building) DistanceFromCenter(i int) float64 {
	return b.Sensor(i).Distance2D(b.Center(b.Floor(i)))
}
