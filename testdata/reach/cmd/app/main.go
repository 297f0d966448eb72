// Command app is the reachability guard's fixture command.
package main

import "fixture/internal/lib"

func main() {
	lib.Reachable()
	var s lib.Shape = lib.NewSquare(2)
	_ = s.Area()
}
