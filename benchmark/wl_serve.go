package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/genmat"
	"repro/internal/matrix"
	"repro/internal/serve"
)

// serveWorkload measures the request path: POST /v1/mul with an explicit x
// against an in-process serve.Server on a loopback listener. The load is a
// closed loop — two clients, one tenant each, every client waits for y
// before it sends the next x, as the callers of an iterative method do — so
// a slower server is offered less load and throughput is 2 ÷ latency.
type serveWorkload struct {
	sz   sizing
	spec serve.Spec

	seeds []int64     // request k carries x = FillVector(seeds[k % len])
	xs    [][]float64 // the explicit vectors
	want  [][]float64 // reference y per vector

	srv    *serve.Server
	hs     *http.Server
	httpc  *http.Client
	client *serve.Client
	info   serve.MatrixInfo

	mu                      sync.Mutex // guards the samples the clients append to
	queueMs, execMs, wireMs []float64  // per traced request
}

const (
	serveClients = 2
	serveIters   = 4
	serveMatrix  = "bench-band"
	serveVectors = 16
)

func newServeMul(seed int64, sz sizing) (workload, error) {
	n := sz.pick(4000, 1000)
	w := &serveWorkload{sz: sz, spec: serve.Spec{Kind: "random", N: n, Bandwidth: 64, PerRow: 8, Seed: uint64(seed), SPD: true}}
	for k := 0; k < serveVectors; k++ {
		w.seeds = append(w.seeds, seed*1000+int64(k))
		x := make([]float64, n)
		serve.FillVector(x, w.seeds[k])
		w.xs = append(w.xs, x)
	}
	return w, nil
}

func (w *serveWorkload) setup(tr *tracer) error {
	root := tr.begin("setup", -1, -1, -1)
	defer tr.end(root)
	ln, err := stage(tr, root, "serve.listen", func() (net.Listener, error) {
		w.srv = serve.NewServer(serve.Config{Ranks: ranks, Threads: 1, Sessions: 1, BatchMax: 8, Mode: core.TaskMode})
		return net.Listen("tcp", "127.0.0.1:0")
	})
	if err != nil {
		return err
	}
	w.hs = &http.Server{Handler: w.srv.Handler()}
	go w.hs.Serve(ln) // returns when teardown closes the server
	w.httpc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	w.client = &serve.Client{Base: "http://" + ln.Addr().String(), HTTP: w.httpc}
	w.info, err = stage(tr, root, "serve.register", func() (serve.MatrixInfo, error) {
		return w.client.Register(serve.RegisterRequest{Name: serveMatrix, Spec: w.spec})
	})
	if err != nil {
		return err
	}
	_, err = stage(tr, root, "harness.first_op", func() (*serve.Response, error) { return w.request(0, 0) })
	return err
}

func (w *serveWorkload) teardown() {
	if w.srv != nil {
		w.httpc.CloseIdleConnections()
		w.hs.Close()
		w.srv.Close()
		w.srv = nil
	}
}

// request sends vector k as client c's tenant.
func (w *serveWorkload) request(c, k int) (*serve.Response, error) {
	return w.client.Mul(serve.OpRequest{
		Tenant: fmt.Sprintf("tenant-%d", c), Matrix: serveMatrix,
		X: w.xs[k%len(w.xs)], Iters: serveIters,
	})
}

// reference asks serve.Verifier — an independently built cluster with the
// server's geometry — for the expected y of every vector.
func (w *serveWorkload) reference() error {
	v, err := serve.NewVerifier(w.spec, w.info)
	if err != nil {
		return err
	}
	defer v.Close()
	w.want = w.want[:0]
	for _, seed := range w.seeds {
		y, err := v.Expected(serve.OpMul, seed, serveIters, 0, 0)
		if err != nil {
			return err
		}
		w.want = append(w.want, y)
	}
	return nil
}

// block runs ops requests, half on each client, the clients side by side.
// Its wall time is the time until both clients are done.
func (w *serveWorkload) block(tr *tracer, ops int) blockResult {
	res := blockResult{Ops: ops}
	var mu sync.Mutex
	fail := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		res.Failed++
		if res.Err == "" {
			res.Err = err.Error()
		}
	}
	for c := 0; c < serveClients; c++ { // warm-up, untimed
		if _, err := w.request(c, c); err != nil {
			fail(err)
		}
	}
	per := ops / serveClients
	opNs := make([][]int64, serveClients)
	cpu0, t0 := cpuTime(), time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := (c*per + i) % len(w.xs)
				id := tr.nextOp()
				start, t := tr.now(), time.Now()
				resp, err := w.request(c, k)
				d := time.Since(t)
				opNs[c] = append(opNs[c], d.Nanoseconds())
				if err != nil {
					fail(err)
					continue
				}
				if at := firstDiff(w.want[k], resp.Y); len(resp.Y) != len(w.want[k]) || at >= 0 {
					fail(fmt.Errorf("client %d request %d: y differs from the reference at row %d", c, i, at))
				}
				if tr != nil {
					w.traceRequest(tr, id, start, d.Nanoseconds(), resp)
				}
			}
		}(c)
	}
	wg.Wait()
	res.WallNs = time.Since(t0).Nanoseconds()
	res.CPUNs = int64(cpuTime() - cpu0)
	for _, ns := range opNs {
		res.OpNs = append(res.OpNs, ns...)
	}
	return res
}

// traceRequest records one request's spans. The client sees only the whole
// latency; the server reports its queue and execution times inside the
// response, and what is left is the wire: HTTP and JSON both ways plus the
// handler. The children's positions inside the op are therefore computed —
// queue and exec placed back to back in the middle, the wire split evenly
// around them — while their durations are measured.
func (w *serveWorkload) traceRequest(tr *tracer, op int, start, dur int64, resp *serve.Response) {
	wire := max(dur-resp.QueueNs-resp.ExecNs, 0)
	root := tr.add("op", op, -1, start, start+dur)
	at := start
	for _, c := range []struct {
		name string
		ns   int64
	}{{"serve.wire", wire / 2}, {"serve.queue", resp.QueueNs}, {"serve.exec", resp.ExecNs}, {"serve.wire", wire - wire/2}} {
		tr.add(c.name, op, root, at, at+c.ns)
		at += c.ns
	}
	w.mu.Lock()
	w.queueMs = append(w.queueMs, float64(resp.QueueNs)/1e6)
	w.execMs = append(w.execMs, float64(resp.ExecNs)/1e6)
	w.wireMs = append(w.wireMs, float64(wire)/1e6)
	w.mu.Unlock()
}

func (w *serveWorkload) facts(m metrics) {
	m.set("matrix.rows", float64(w.info.Rows))
	m.set("matrix.nnz", float64(w.info.Nnz))
	m.set("core.plan_bytes", float64(w.info.Bytes))
}

func (w *serveWorkload) layers(m metrics) error {
	m.set("serve.queue_ms_p50", median(w.queueMs))
	m.set("serve.exec_ms_p50", median(w.execMs))
	m.set("serve.wire_ms_p50", median(w.wireMs))

	// The same request without the wire: admission, dispatch and cluster.
	do, err := medianSecondsErr(w.sz.pick(201, 5), func() error {
		_, err := w.srv.Do(&serve.Request{Tenant: "tenant-0", Matrix: serveMatrix, Op: serve.OpMul, X: w.xs[0], Iters: serveIters})
		return err
	})
	if err != nil {
		return err
	}
	m.set("serve.do_ms_p50", 1e3*do)

	resp, err := w.request(0, 0)
	if err != nil {
		return err
	}
	reqBody, _ := json.Marshal(serve.OpRequest{Tenant: "tenant-0", Matrix: serveMatrix, X: w.xs[0], Iters: serveIters})
	respBody, _ := json.Marshal(resp)
	m.set("serve.req_bytes", float64(len(reqBody)))
	m.set("serve.resp_bytes", float64(len(respBody)))

	st := w.srv.Stats()
	m.set("serve.batch_mean", float64(st.BatchedRequests)/float64(max(st.Batches, 1)))
	m.set("serve.rejected", float64(st.Rejected))
	m.set("serve.retried", float64(st.Retried))

	// The cluster step under the service, on a harness-built cluster of the
	// same matrix and geometry: what is left of a request once the wire,
	// admission and dispatch are taken away, and what a job submission costs.
	src, err := genmat.NewRandomBand(genmat.RandomBandConfig{
		N: w.spec.N, Bandwidth: w.spec.Bandwidth, PerRow: w.spec.PerRow, Seed: w.spec.Seed, Symmetric: true, SPD: true,
	})
	if err != nil {
		return err
	}
	a := matrix.Materialize(src)
	part := core.PartitionByNnz(a, ranks)
	plan, err := core.BuildPlan(a, part, true)
	if err != nil {
		return err
	}
	planFacts(m, a, part, plan)
	cw, err := dialWorld(plan, false, core.TaskMode)
	if err != nil {
		return err
	}
	defer cw.close()
	return stepLayers(m, cw, w.xs[0], w.sz, core.TaskMode, func() error { return cw.mul(w.xs[0], serveIters) })
}
