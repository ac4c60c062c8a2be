package matrix_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/matrix"
)

// The written text must carry every entry bit for bit: the header, the
// size line, then one 1-based "row col value" line per stored entry in
// row-major order, with %.17g values that parse back to the same bits.
func TestMatrixMarketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := RandomCSR(rng, 25, 31, 5)
	var buf bytes.Buffer
	if err := matrix.WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if got, want := len(lines), 2+int(a.Nnz()); got != want {
		t.Fatalf("%d lines, want %d", got, want)
	}
	if lines[0] != "%%MatrixMarket matrix coordinate real general" {
		t.Errorf("header %q", lines[0])
	}
	if want := fmt.Sprintf("%d %d %d", a.NumRows, a.NumCols, a.Nnz()); lines[1] != want {
		t.Errorf("size line %q, want %q", lines[1], want)
	}
	next := 2
	for i := 0; i < a.NumRows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			var row, col int
			var val string
			if _, err := fmt.Sscanf(lines[next], "%d %d %s", &row, &col, &val); err != nil {
				t.Fatalf("line %d %q: %v", next+1, lines[next], err)
			}
			v, err := strconv.ParseFloat(val, 64)
			if err != nil || row != i+1 || col != int(a.ColIdx[k])+1 || math.Float64bits(v) != math.Float64bits(a.Val[k]) {
				t.Fatalf("line %d %q, want entry (%d, %d) = %v", next+1, lines[next], i+1, a.ColIdx[k]+1, a.Val[k])
			}
			next++
		}
	}
}
