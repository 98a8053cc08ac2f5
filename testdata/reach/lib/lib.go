// Package lib declares three dead things, each beside a live one that
// shares its name or its type:
//
//   - Gauge.Add, which shares its name with the live Counter.Add;
//   - Square.Name, which implements Shape.Name, a method nothing calls;
//   - Config.Ignored, which main sets and nothing reads.
package lib

import "strconv"

// Config has an option Total reads and one nothing reads.
type Config struct {
	Used    int
	Ignored int
}

// Shape is called through for its Area only.
type Shape interface {
	Area() float64
	Name() string
}

// Square implements Shape and fmt.Stringer.
type Square struct{ Side float64 }

// Area is live: Total calls it through Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// Name is dead: nothing calls Shape.Name.
func (s Square) Name() string { return "square" }

// String is live: fmt calls it through fmt.Stringer.
func (s Square) String() string { return "square " + format(s.Side) }

// Counter counts; main calls its Add.
type Counter struct{ n int }

// Add is live.
func (c *Counter) Add() { c.n++ }

// Gauge shares Counter's method name.
type Gauge struct{ v int }

// Add is dead: only the name is live.
func (g *Gauge) Add() { g.v++ }

// scale is set by a package-level initializer, which always runs.
var scale = unit()

func unit() float64 { return 1 }

var registered bool

func init() { register() }

func register() { registered = true }

// Total is live: main calls it.
func Total(cfg Config, shapes []Shape) float64 {
	sum := float64(cfg.Used) * scale
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

func format(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
