// Package lib holds one declaration per census rule.
package lib

// T is used, but T.M is not called: U.M, which shares its name, must not
// keep it.
type T struct{}

func (T) M() {}

type U struct{}

func (U) M() {}

// Square.Area is called only through the Shape interface.
type Shape interface{ Area() int }

type Square struct{}

func (Square) Area() int { return 4 }

// build is called only by Table's initializer.
var Table = build()

func build() []int { return []int{1} }

// Stringy.String is called only by fmt.
type Stringy struct{}

func (Stringy) String() string { return "stringy" }

// orphan is called by nothing.
func orphan() {}

// Exported is called by cmd/app; Internal only by this package.
func Exported() int { return Internal() }

func Internal() int { return 1 }

// ForBench is called only by benchmark/.
func ForBench() {}
