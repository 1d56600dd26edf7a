// Command app is the fixture's one shipped program.
package main

import (
	"fmt"

	"fixture/lib"
)

func main() {
	var t lib.T
	var u lib.U
	u.M()
	var s lib.Shape = lib.Square{}
	fmt.Println(t, s.Area(), lib.Table, lib.Stringy{}, lib.Exported())
}
