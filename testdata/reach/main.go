// Command reach is the fixture TestReachSeesPastNames scans: a small module
// whose dead declarations a bare-name match passes.
package main

import (
	"fmt"

	"reach/lib"
)

// report is main's own struct, outside lib and named for no Config: main
// reads Label, only sets Note, and cannot read the blank field at all.
type report struct {
	Label string
	Note  string
	_     int
}

func main() {
	var c lib.Counter
	c.Add()
	cfg := lib.Config{Used: 1}
	cfg.Ignored = 2
	r := report{Label: "total"}
	r.Note = "unread"
	fmt.Println(r.Label, lib.Total(cfg, []lib.Shape{lib.Square{Side: 2}}).Sum, lib.Square{Side: 1})
}
