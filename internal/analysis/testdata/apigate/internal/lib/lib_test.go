package lib

import "testing"

// Declarations in test files are not checked, and references from them do
// not count.
func ExportedInTest() {}

func TestUses(t *testing.T) { Unused(); ExportedInTest() }
