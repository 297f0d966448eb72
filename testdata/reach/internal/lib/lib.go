// Package lib is the reachability guard's fixture: a function the command
// calls, a dead exported function, a method the command reaches only
// through an interface, and a function only the benchmark module calls.
package lib

// Reachable is called by the command.
func Reachable() {}

// Dead is called by nothing.
func Dead() {}

// BenchOnly is called only by the benchmark module.
func BenchOnly() {}

// Shape is what the command calls Area through.
type Shape interface{ Area() int }

// Square is the command's Shape.
type Square struct{ side int }

// NewSquare returns a Square of the given side.
func NewSquare(side int) Square { return Square{side} }

// Area is reached only through Shape.
func (s Square) Area() int { return s.side * s.side }
