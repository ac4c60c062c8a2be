// Package other is a second internal package.
package other

import (
	"apigate/internal/iface"
	"apigate/internal/lib"
)

// Call is called by cmd/tool.
func Call() {
	lib.UsedByPackage()
	iface.Run(lib.T{})
}
