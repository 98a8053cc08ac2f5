// Command reach is the fixture TestReachSeesPastNames scans: a small module
// whose dead declarations a bare-name match passes.
package main

import (
	"fmt"

	"reach/lib"
)

func main() {
	var c lib.Counter
	c.Add()
	cfg := lib.Config{Used: 1}
	cfg.Ignored = 2
	fmt.Println(lib.Total(cfg, []lib.Shape{lib.Square{Side: 2}}), lib.Square{Side: 1})
}
