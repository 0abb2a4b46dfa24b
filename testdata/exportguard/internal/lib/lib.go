// Package lib holds one exported name per rule of the exported-name guard.
package lib

import "strings"

// Limit is a constant the app reads.
const Limit = 3

// Orphan has no caller at all.
func Orphan() {}

// TestedOnly is called only from lib_test.go.
func TestedOnly() int { return 1 }

// Recursive calls only itself.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Receiver is named only by its own method's receiver.
type Receiver struct{}

// Method has no caller.
func (Receiver) Method() {}

// Greeter is named by the app.
type Greeter struct{}

// String is reached only through fmt.Stringer.
func (Greeter) String() string { return "greeter" }

// Greet is reached only through greeter.
func (Greeter) Greet() string { return "hello" }

type greeter interface{ Greet() string }

// Hello is what the app calls.
func Hello(g greeter) string { return strings.Repeat(Internal()+g.Greet(), Limit) }

// Internal is used only inside this package.
func Internal() string { return "> " }

// Max is generic and called only through an inferred instantiation.
func Max[T int | float64](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// Pair is a generic type the app names only as Pair[string].
type Pair[T any] struct{ a, b T }

// First is called only on an instantiated Pair.
func (p Pair[T]) First() T { return p.a }

// Options holds one field per rule of the option-field guard.
type Options struct {
	Keyed       int // the app sets it in a composite literal
	Assigned    int // the app assigns it
	Incremented int // the app increments it
	Unset       int // nothing sets it
	TestSet     int // only lib_test.go sets it
	unexported  int // not an option anyone outside lib can set
}

// PositionalConfig is set only through a literal without keys.
type PositionalConfig struct{ A, B int }

// Settings is not an option struct by name: its field is not checked.
type Settings struct{ Ignored int }
