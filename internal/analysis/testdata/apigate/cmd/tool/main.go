// Command tool is the fixture's program.
package main

import (
	"fmt"

	"apigate/internal/lib"
	"apigate/internal/other"
)

func main() {
	lib.UsedByCommand()
	other.Call()
	f := lib.UsedAsValue
	f()
	fmt.Println(lib.Generic(1), lib.T{}, &lib.E{})
}
