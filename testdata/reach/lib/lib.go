// Package lib declares dead things, each beside a live one that shares its
// name, its type or its interface:
//
//   - Gauge.Add, which shares its name with the live Counter.Add, and Gauge,
//     which only its own methods' receivers name;
//   - Square.Name, which implements Shape.Name, a method nothing calls;
//   - Circle, which implements the live Shape.Area but which nothing builds,
//     so neither of its methods runs;
//   - Config.Ignored, which main sets and nothing reads;
//   - Spare and MaxSides, an exported type and constant nothing names;
//   - Twice, a facade-style variable nothing names, and twice, which only
//     its initializer names.
//
// Beside them, Fine is live though nothing names it: its type is.
package lib

import "strconv"

// Config has options Total reads and one nothing reads.
type Config struct {
	Used    int
	Level   Level
	Ignored int
}

// Level is live: Config names it, so both its constants are live.
type Level int

// The levels; nothing names either.
const (
	Coarse Level = iota
	Fine
)

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

// Circle implements Shape, but nothing builds one.
type Circle struct{ R float64 }

// Area is dead: Shape.Area is called, but never on a Circle.
func (c Circle) Area() float64 { return 3 * c.R * c.R }

// Name is dead.
func (c Circle) Name() string { return "circle" }

// Counter counts; main calls its Add.
type Counter struct{ n int }

// Add is live.
func (c *Counter) Add() { c.n++ }

// Gauge shares Counter's method name.
type Gauge struct{ v int }

// Add is dead: only the name is live.
func (g *Gauge) Add() { g.v++ }

// String is a root, as fmt may call it through fmt.Stringer, but reaching a
// method builds no value of its type: Gauge stays dead.
func (g *Gauge) String() string { return strconv.Itoa(g.v) }

// Spare is dead: nothing names it.
type Spare struct{}

// MaxSides is dead: nothing names it, and its type is not lib's.
const MaxSides = 8

// Twice is dead, and so is twice, which only its initializer names.
var Twice = twice

func twice(x float64) float64 { return 2 * x }

// scale is set by a package-level initializer, which always runs.
var scale = unit()

func unit() float64 { return 1 }

var registered bool

func init() { register() }

func register() { registered = true }

// Total is live: main calls it.
func Total(cfg Config, shapes []Shape) float64 {
	sum := float64(cfg.Used) * scale * float64(1+cfg.Level)
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

func format(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
