package matrix

import (
	"bufio"
	"fmt"
	"io"
)

// Matrix Market output. The package writes the coordinate real general
// format so that the study's matrices can be handed to other tools; it
// reads no Matrix Market file.

// WriteMatrixMarket writes the matrix in Matrix Market coordinate real
// general format (1-based indices).
func WriteMatrixMarket(w io.Writer, a *CSR) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", a.NumRows, a.NumCols, a.Nnz()); err != nil {
		return err
	}
	for i := 0; i < a.NumRows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, a.ColIdx[k]+1, a.Val[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
