// Command benchmark is the fixture's benchmark: what only it reaches is
// logged, not reported.
package main

import "fixture/lib"

func main() { lib.ForBench() }
