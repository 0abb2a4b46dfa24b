// Command app is the fixture's only caller outside lib.
package main

import (
	"fmt"

	"guard/internal/lib"
)

func main() {
	var p lib.Pair[string]
	fmt.Println(lib.Greeter{}, lib.Hello(lib.Greeter{}), lib.Max(1, 2), p.First(), lib.Limit)
	o := lib.Options{Keyed: 1}
	o.Assigned = 2
	o.Incremented++
	fmt.Println(o, lib.PositionalConfig{1, 2}, lib.Settings{})
}
