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

// canonicalFold is the reference result of the i-th collective: every
// rank's contribution of length ln, folded one after the other in rank
// order 0 ⊕ 1 ⊕ … ⊕ size-1.
func canonicalFold(op core.ReduceOp, size, i, ln int) []float64 {
	want := contribution(0, i, ln)
	for q := 1; q < size; q++ {
		for j, v := range contribution(q, i, ln) {
			want[j] = op.Combine(want[j], v)
		}
	}
	return want
}

// Every collective agrees bit for bit with the sequential canonical fold
// on every rank — sum, max and min, scalar and short vector — at rank
// counts on both sides of a power of two, however the ranks are spread
// over tcp endpoints and on an all-local chanmpi world, and
// AllgatherInt64 is exact over the full int64 range.
func TestCollectivesMatchCanonicalFoldAcrossSizesAndSplits(t *testing.T) {
	lens := []int{1, 3}
	for _, size := range []int{1, 2, 3, 5, 7, 8} {
		type shape struct {
			name  string
			comms func(t *testing.T) []core.Comm
		}
		shapes := []shape{{"chan", func(t *testing.T) []core.Comm {
			w, err := chanmpi.NewWorld(size)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { w.Close() })
			cs := make([]core.Comm, size)
			for r := range cs {
				if cs[r], err = w.Comm(r); err != nil {
					t.Fatal(err)
				}
			}
			return cs
		}}}
		for _, splits := range collectiveSplits(size) {
			shapes = append(shapes, shape{fmt.Sprintf("endpoints=%d", len(splits)), func(t *testing.T) []core.Comm {
				return comms(t, dialSplit(t, size, splits), size)
			}})
		}
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("P=%d/%s", size, sh.name), func(t *testing.T) {
				if err := spmd(sh.comms(t), func(c core.Comm) error {
					r := c.Rank()
					for oi, op := range reduceOps {
						for _, ln := range lens {
							in := contribution(r, oi, ln)
							want := canonicalFold(op, size, oi, ln)
							res, err := c.Allreduce(op, in)
							if err != nil {
								return err
							}
							for i := range res {
								if math.Float64bits(res[i]) != math.Float64bits(want[i]) {
									return fmt.Errorf("rank %d op %v len %d elem %d: got %x, fold %x", r, op, ln, i,
										math.Float64bits(res[i]), math.Float64bits(want[i]))
								}
							}
							if ln == 1 {
								s, err := c.AllreduceScalar(op, in[0])
								if err != nil {
									return err
								}
								if math.Float64bits(s) != math.Float64bits(want[0]) {
									return fmt.Errorf("rank %d op %v: AllreduceScalar %x, fold %x", r, op, math.Float64bits(s), math.Float64bits(want[0]))
								}
							}
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
					want := canonicalFold(core.OpSum, size, i, ln)
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
// loopback world: one endpoint per rank (⌈log₂P⌉ one-way hops), and five
// ranks held by two processes and by one.
func BenchmarkAllreduceTCP(b *testing.B) {
	for _, shape := range []struct {
		name   string
		splits [][2]int
	}{
		{"ranks=2", [][2]int{{0, 1}, {1, 2}}},
		{"ranks=5", [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}},
		{"ranks=5/procs=2", [][2]int{{0, 3}, {3, 5}}},
		{"ranks=5/procs=1", [][2]int{{0, 5}}},
	} {
		b.Run(shape.name, func(b *testing.B) {
			size := shape.splits[len(shape.splits)-1][1]
			cs := comms(b, dialSplit(b, size, shape.splits), size)
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
