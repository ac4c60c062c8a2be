package tcpmpi_test

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/chanmpi"
	"repro/internal/core"
)

// collectiveSplits lists the ways a world of `size` ranks is cut into one,
// two and three endpoints (fewer when it has fewer ranks).
func collectiveSplits(size int) [][][2]int {
	out := [][][2]int{{{0, size}}}
	if size >= 2 {
		out = append(out, [][2]int{{0, size / 2}, {size / 2, size}})
	}
	if size >= 3 {
		a, b := size/3, 2*size/3
		out = append(out, [][2]int{{0, a}, {a, b}, {b, size}})
	}
	return out
}

// contribution is rank r's deterministic input to the i-th collective:
// values whose sum depends on the order they are added in.
func contribution(r, i, ln int) []float64 {
	v := make([]float64, ln)
	for j := range v {
		v[j] = math.Sin(float64(7*r+3*i+j+1)) / float64(r+j+3)
	}
	return v
}

var reduceOps = []core.ReduceOp{core.OpSum, core.OpMax, core.OpMin}

// The dissemination collectives agree with the in-process runtime bit for
// bit on every rank — sum, max and min, scalar and short vector — at rank
// counts on both sides of a power of two and however the ranks are spread
// over endpoints, and AllgatherInt64 is exact over the full int64 range.
func TestCollectivesBitIdenticalToChanmpiAcrossSizesAndSplits(t *testing.T) {
	lens := []int{1, 3}
	for _, size := range []int{1, 2, 3, 5, 7, 8} {
		// want[rank] lists chanmpi's results on that rank, in call order.
		want := make([][][]float64, size)
		cw, err := chanmpi.NewWorld(size)
		if err != nil {
			t.Fatal(err)
		}
		if err := cw.Run(func(c *chanmpi.Comm) error {
			for oi, op := range reduceOps {
				for _, ln := range lens {
					res, err := c.Allreduce(op, contribution(c.Rank(), oi, ln))
					if err != nil {
						return err
					}
					want[c.Rank()] = append(want[c.Rank()], append([]float64(nil), res...))
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for _, splits := range collectiveSplits(size) {
			t.Run(fmt.Sprintf("P=%d/endpoints=%d", size, len(splits)), func(t *testing.T) {
				cs := comms(t, dialSplit(t, size, splits), size)
				if err := spmd(cs, func(c core.Comm) error {
					r, call := c.Rank(), 0
					for oi, op := range reduceOps {
						for _, ln := range lens {
							in := contribution(r, oi, ln)
							res, err := c.Allreduce(op, in)
							if err != nil {
								return err
							}
							for i := range res {
								if math.Float64bits(res[i]) != math.Float64bits(want[r][call][i]) {
									return fmt.Errorf("rank %d op %v len %d elem %d: tcpmpi %x, chanmpi %x", r, op, ln, i,
										math.Float64bits(res[i]), math.Float64bits(want[r][call][i]))
								}
							}
							if ln == 1 {
								s, err := c.AllreduceScalar(op, in[0])
								if err != nil {
									return err
								}
								if math.Float64bits(s) != math.Float64bits(want[r][call][0]) {
									return fmt.Errorf("rank %d op %v: AllreduceScalar %x, chanmpi %x", r, op, math.Float64bits(s), math.Float64bits(want[r][call][0]))
								}
							}
							call++
						}
					}
					// Values spread over the whole int64 range.
					value := func(q int) int64 { return math.MinInt64 + int64(q)*(math.MaxInt64/int64(size)*2) }
					g, err := c.AllgatherInt64(value(r))
					if err != nil {
						return err
					}
					if len(g) != size {
						return fmt.Errorf("rank %d: gathered %d values from %d ranks", r, len(g), size)
					}
					for q, v := range g {
						if v != value(q) {
							return fmt.Errorf("rank %d: gather[%d] = %d", r, q, v)
						}
					}
					return c.Barrier()
				}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// A thousand collectives of alternating vector length run back to back
// with no barrier between them: a rank a whole collective ahead of its
// neighbour sends into rounds the neighbour has not posted yet, and the
// per-(source, tag) FIFO alone keeps them apart. Every result is checked
// against the canonical rank-order fold.
func TestBackToBackCollectivesOfAlternatingLength(t *testing.T) {
	const rounds = 1000
	for _, size := range []int{2, 3, 5, 7, 8} {
		splits := collectiveSplits(size)
		t.Run(fmt.Sprintf("P=%d", size), func(t *testing.T) {
			cs := comms(t, dialSplit(t, size, splits[len(splits)-1]), size)
			if err := spmd(cs, func(c core.Comm) error {
				for i := 0; i < rounds; i++ {
					ln := 1 + i%3
					res, err := c.Allreduce(core.OpSum, contribution(c.Rank(), i, ln))
					if err != nil {
						return err
					}
					want := contribution(0, i, ln)
					for q := 1; q < size; q++ {
						for j, v := range contribution(q, i, ln) {
							want[j] = core.OpSum.Combine(want[j], v)
						}
					}
					for j := range want {
						if math.Float64bits(res[j]) != math.Float64bits(want[j]) {
							return fmt.Errorf("rank %d collective %d elem %d: got %x want %x", c.Rank(), i, j,
								math.Float64bits(res[j]), math.Float64bits(want[j]))
						}
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Ranks that disagree on a collective's vector length get a typed
// *core.MismatchError instead of a wedge, whichever of them holds the
// longer vector, and the world is failed afterwards.
func TestCollectiveLengthDisagreementIsMismatchError(t *testing.T) {
	for _, longRank := range []int{0, 1} {
		t.Run(fmt.Sprintf("long=%d", longRank), func(t *testing.T) {
			cs := comms(t, dialSplit(t, 2, [][2]int{{0, 1}, {1, 2}}), 2)
			errCh := make(chan error, 1)
			go func() {
				errCh <- spmd(cs, func(c core.Comm) error {
					in := []float64{1}
					if c.Rank() == longRank {
						in = []float64{1, 2, 3}
					}
					_, err := c.Allreduce(core.OpSum, in)
					return err
				})
			}()
			select {
			case err := <-errCh:
				var mm *core.MismatchError
				if !errors.As(err, &mm) {
					t.Fatalf("got %v, want a *core.MismatchError", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("a length disagreement wedged the collective")
			}
			failed := 0
			for _, c := range cs {
				if _, err := c.AllreduceScalar(core.OpSum, 1); err != nil {
					failed++
				}
			}
			if failed == 0 {
				t.Error("collectives still succeed on every rank after the mismatch")
			}
		})
	}
}

// BenchmarkAllreduceTCP is one scalar allreduce on every rank of a
// loopback world, one endpoint per rank: ⌈log₂P⌉ one-way hops.
func BenchmarkAllreduceTCP(b *testing.B) {
	for _, size := range []int{2, 5} {
		b.Run(fmt.Sprintf("ranks=%d", size), func(b *testing.B) {
			splits := make([][2]int, size)
			for r := range splits {
				splits[r] = [2]int{r, r + 1}
			}
			cs := comms(b, dialSplit(b, size, splits), size)
			b.ReportAllocs()
			if err := spmd(cs, func(c core.Comm) error {
				// One round outside the clock creates the resident scratch
				// and lines the ranks up.
				if err := c.Barrier(); err != nil {
					return err
				}
				if c.Rank() == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					if _, err := c.AllreduceScalar(core.OpSum, float64(c.Rank())); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}
