package other_test

import (
	"testing"

	"apigate/internal/lib"
)

func TestOnlyTests(t *testing.T) { lib.OnlyTests() }
