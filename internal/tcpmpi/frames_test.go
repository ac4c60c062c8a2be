package tcpmpi

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// frameCounter counts the frames that pass through a connection's read
// side: it follows the byte stream header by header (17 bytes, then the
// payload the header's count claims), however the reads happen to split
// it. Only the connection's reader goroutine calls Read.
type frameCounter struct {
	r      io.Reader
	frames atomic.Int64
	hdr    []byte // the part of the current header read so far
	skip   int    // payload bytes of the current frame still to come
}

func (c *frameCounter) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	for b := p[:n]; len(b) > 0; {
		if c.skip > 0 {
			k := min(c.skip, len(b))
			c.skip, b = c.skip-k, b[k:]
			continue
		}
		k := min(frameHeaderLen-len(c.hdr), len(b))
		c.hdr, b = append(c.hdr, b[:k]...), b[k:]
		if len(c.hdr) == frameHeaderLen {
			c.frames.Add(1)
			c.skip = 8 * int(binary.LittleEndian.Uint32(c.hdr))
			c.hdr = c.hdr[:0]
		}
	}
	return n, err
}

// tcpConnPair returns the two ends of one loopback TCP connection.
func tcpConnPair(t *testing.T) [2]net.Conn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	c0, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c1 := <-accepted
	if c1 == nil {
		t.Fatal("accept failed")
	}
	return [2]net.Conn{c0, c1}
}

// linkWorlds builds the two endpoints of a two-rank world, one rank each,
// on the two ends of conns, with each endpoint's reader counting the
// frames it reads into counters[i].
func linkWorlds(t *testing.T, conns [2]net.Conn, counters *[2]frameCounter) [2]*world {
	t.Helper()
	return linkSplit(t, [2][2]int{{0, 1}, {1, 2}}, conns, counters)
}

// linkSplit is linkWorlds for a world whose two endpoints hold the rank
// ranges splits[0] and splits[1].
func linkSplit(t *testing.T, splits [2][2]int, conns [2]net.Conn, counters *[2]frameCounter) [2]*world {
	t.Helper()
	procs := []procInfo{{RankLo: splits[0][0], RankHi: splits[0][1]}, {RankLo: splits[1][0], RankHi: splits[1][1]}}
	var out [2]*world
	for i := range out {
		w, err := newWorld(splits[1][1], splits[i][0], splits[i][1], procs, i)
		if err != nil {
			t.Fatal(err)
		}
		counters[i].r = conns[i]
		p := newPeerConn(conns[i], bufio.NewReader(&counters[i]))
		w.conns[1-i] = p
		go w.readLoop(1-i, p)
		t.Cleanup(func() { w.Close() })
		out[i] = w
	}
	return out
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
// and a broadcast frame the other, in series. The frames are counted
// where the peer reads them.
func TestScalarAllreduceAtTwoRanksWritesOneFramePerRank(t *testing.T) {
	var read [2]frameCounter
	worlds := linkWorlds(t, tcpConnPair(t), &read)
	var wg sync.WaitGroup
	var errs [2]error
	var comms [2]core.Comm
	for i, w := range worlds {
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
	for i := range read {
		if errs[i] != nil {
			t.Fatalf("rank %d: %v", i, errs[i])
		}
		// The last round's frame is read before the peer's allreduce
		// returns, so the counts are final here.
		if got := read[1-i].frames.Load(); got != rounds {
			t.Errorf("rank %d wrote %d frames in %d scalar allreduces, want one each", i, got, rounds)
		}
	}
}

// localComms returns the communicators of every rank the worlds hold.
func localComms(t *testing.T, worlds ...*world) []core.Comm {
	t.Helper()
	var cs []core.Comm
	for _, w := range worlds {
		for _, r := range w.LocalRanks() {
			c, err := w.Comm(r)
			if err != nil {
				t.Fatal(err)
			}
			cs = append(cs, c)
		}
	}
	return cs
}

// collectiveKinds are the collectives, each checked on its own result.
var collectiveKinds = []struct {
	name string
	run  func(c core.Comm) error
}{
	{"Allreduce", func(c core.Comm) error {
		res, err := c.Allreduce(core.OpSum, []float64{1, float64(c.Rank())})
		if err == nil && (res[0] != float64(c.Size()) || res[1] != float64(c.Size()*(c.Size()-1)/2)) {
			err = fmt.Errorf("rank %d: sums %v", c.Rank(), res)
		}
		return err
	}},
	{"Barrier", func(c core.Comm) error { return c.Barrier() }},
	{"AllgatherInt64", func(c core.Comm) error {
		g, err := c.AllgatherInt64(int64(-c.Rank()))
		for r, v := range g {
			if v != int64(-r) {
				return fmt.Errorf("rank %d: gather[%d] = %d", c.Rank(), r, v)
			}
		}
		return err
	}},
}

// runRounds runs the collective rounds times on every communicator, one
// goroutine per rank.
func runRounds(cs []core.Comm, rounds int, run func(c core.Comm) error) error {
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < rounds && errs[i] == nil; k++ {
				errs[i] = run(c)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// A process writes one frame per dissemination round however many ranks
// it holds: with five ranks in two processes, [0,3) and [3,5), every
// collective writes Q·⌈log₂Q⌉ = 2 frames, one per process, counted where
// the peer reads them. A one-process world holds every rank, has no peer
// to write to, and completes its collectives in shared memory.
func TestCollectiveFramesPerProcess(t *testing.T) {
	var read [2]frameCounter
	worlds := linkSplit(t, [2][2]int{{0, 3}, {3, 5}}, tcpConnPair(t), &read)
	cs := localComms(t, worlds[0], worlds[1])
	const rounds = 20
	for _, kind := range collectiveKinds {
		before := [2]int64{read[0].frames.Load(), read[1].frames.Load()}
		if err := runRounds(cs, rounds, kind.run); err != nil {
			t.Fatalf("%s: %v", kind.name, err)
		}
		// A process's last frame is read before its peer's collective
		// returns, so the counts are final here.
		for i := range read {
			if got := read[i].frames.Load() - before[i]; got != rounds {
				t.Errorf("%s: process %d wrote %d frames in %d collectives, want one each", kind.name, 1-i, got, rounds)
			}
		}
	}

	one, err := newWorld(5, 0, 5, []procInfo{{RankLo: 0, RankHi: 5}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { one.Close() })
	if len(one.conns) != 1 || one.conns[0] != nil {
		t.Fatalf("a one-process world has connections %v", one.conns)
	}
	for _, kind := range collectiveKinds {
		if err := runRounds(localComms(t, one), rounds, kind.run); err != nil {
			t.Fatalf("one process, %s: %v", kind.name, err)
		}
	}
}
