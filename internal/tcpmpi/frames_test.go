package tcpmpi

import (
	"bufio"
	"context"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// countingWriter counts the Writes that reach a connection. writeFrame
// flushes once per frame, so for frames that fit the buffer one Write is
// one frame.
type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c countingWriter) Write(b []byte) (int, error) {
	c.n.Add(1)
	return c.w.Write(b)
}

// dialPair brings up both endpoints of a two-rank loopback world inside
// this package's tests, one rank each, with mutate applied to each
// transport before it dials.
func dialPair(t *testing.T, mutate func(tr *Transport)) [2]*world {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	var worlds [2]core.World
	var errs [2]error
	for i := range worlds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr := &Transport{Addr: addr, Coordinate: i == 0, RankLo: i, RankHi: i + 1}
			if mutate != nil {
				mutate(tr)
			}
			worlds[i], errs[i] = tr.Dial(ctx, 2)
		}(i)
	}
	wg.Wait()
	var out [2]*world
	for i, err := range errs {
		if err != nil {
			t.Fatalf("endpoint %d: %v", i, err)
		}
		out[i] = worlds[i].(*world)
		t.Cleanup(func() { out[i].Close() })
	}
	return out
}

// At two ranks a scalar allreduce is one dissemination round: each rank
// writes exactly one frame, where the tree wrote a gather frame one way
// and a broadcast frame the other, in series.
func TestScalarAllreduceAtTwoRanksWritesOneFramePerRank(t *testing.T) {
	worlds := dialPair(t, nil)
	var wg sync.WaitGroup
	var errs [2]error
	var frames [2]atomic.Int64
	var comms [2]core.Comm
	for i, w := range worlds {
		p := w.conns[1-i]
		p.wmu.Lock()
		p.bw = bufio.NewWriter(countingWriter{p.c, &frames[i]})
		p.wmu.Unlock()
		var err error
		if comms[i], err = w.Comm(i); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 50
	for i := range comms {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < rounds && errs[i] == nil; k++ {
				var sum float64
				if sum, errs[i] = comms[i].AllreduceScalar(core.OpSum, float64(i+1)); errs[i] == nil && sum != 3 {
					t.Errorf("rank %d: sum = %g, want 3", i, sum)
				}
			}
		}(i)
	}
	wg.Wait()
	for i := range frames {
		if errs[i] != nil {
			t.Fatalf("rank %d: %v", i, errs[i])
		}
		if got := frames[i].Load(); got != rounds {
			t.Errorf("rank %d wrote %d frames in %d scalar allreduces, want one each", i, got, rounds)
		}
	}
}
