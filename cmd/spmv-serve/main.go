// Command spmv-serve exposes the multi-tenant SpMV service (internal/serve)
// over HTTP on loopback: named matrices are registered once (generated,
// partitioned, converted to the session's storage format) and then served
// by a pool of warm resident clusters, with per-tenant admission control
// and batched dispatch keeping the steady state on the runtime's
// zero-allocation path.
//
// Start a server and drive it by hand, in JSON:
//
//	spmv-serve -addr 127.0.0.1:8311 -ranks 4 -threads 2 &
//	J='Content-Type: application/json'
//	curl -s -H "$J" 127.0.0.1:8311/v1/register -d '{
//	    "name": "band", "mode": "task-mode",
//	    "spec": {"kind": "random", "n": 4000, "bandwidth": 64, "per_row": 8, "spd": true}}'
//	curl -s -H "$J" 127.0.0.1:8311/v1/mul -d '{"tenant": "a", "matrix": "band", "seed": 1, "iters": 10}'
//	curl -s -H "$J" 127.0.0.1:8311/v1/solve -d '{"tenant": "a", "matrix": "band", "seed": 2}'
//	curl -s 127.0.0.1:8311/v1/stats
//
// Endpoints: POST /v1/register, /v1/mul, /v1/solve; GET /v1/matrix/{name},
// /v1/stats, /healthz.
//
// /v1/mul and /v1/solve speak two body encodings and answer in the one they
// were asked in (the response mirrors the request's Content-Type):
// application/json as above, and application/x-spmv-f64, which programs
// use — serve.Client and cmd/spmv-load among them — because a vector of
// float64s printed and parsed as decimals costs ten times the
// multiplication it feeds. A binary body is one little-endian frame,
//
//	u32 metaLen | meta | u32 n | n × float64
//
// where meta is the same JSON object minus its vector ("x" in a request,
// "y" in a response) and the vector follows as raw IEEE-754 bits; n is 0
// (x is derived from the seed) or the matrix's row count. curl's default
// form-encoded Content-Type, like any other, is a 415: pass the -H above.
//
// Errors are JSON {"error": "..."} in either encoding. Admission
// rejections return 429, unknown matrices 404, malformed requests 400 (bad
// JSON with valid tokens enumerated; a frame that is short, has meta over
// 4 KB or not JSON, an n that is neither 0 nor the row count, or trailing
// bytes), a body over 64 MB 413, a missed deadline 504, a draining server
// 503. A result with a NaN or ±Inf in it cannot be written as JSON and is
// a 500 that says so; ask for it in the binary encoding.
//
// Every response is a pure function of (spec, geometry, seed): verify it
// bit for bit with cmd/spmv-load -verify, which rebuilds the server's
// matrix and replays every request on a reference cluster.
//
// SIGINT/SIGTERM drain cleanly: admissions are refused with 503
// (serve.ErrDraining) while queued and in-flight requests run to
// completion — bounded by -drain-timeout — then the listener stops and
// resident sessions depart via the graceful BYE path.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8311", "listen address (loopback)")
		ranks       = flag.Int("ranks", 4, "message-passing ranks per matrix cluster")
		threads     = flag.Int("threads", 1, "compute-team size per rank")
		modeFlag    = flag.String("mode", "task-mode", "default kernel mode for registered matrices")
		formatFlag  = flag.String("format", "", "default storage format (crs or sell-<C>-<sigma>); empty = plan CSR")
		queueDepth  = flag.Int("queue-depth", 64, "per-tenant admission queue depth (beyond it: 429)")
		inflight    = flag.Int("inflight", 16, "per-tenant in-flight request cap")
		batchMax    = flag.Int("batch", 8, "max requests per dispatch batch")
		sessions    = flag.Int("sessions", 2, "resident clusters per matrix")
		budgetMB    = flag.Int64("budget-mb", 0, "registry byte budget in MiB (0 = unlimited; beyond it, idle matrices are evicted LRU)")
		maxAttempts = flag.Int("max-attempts", 2, "worlds a request may be retried on after world failures")
		drainWait   = flag.Duration("drain-timeout", 10*time.Second, "graceful-drain budget on SIGINT/SIGTERM: how long queued and in-flight requests may run to completion before shutdown proceeds")
	)
	flag.Parse()

	mode, err := core.ParseMode(*modeFlag)
	if err != nil {
		fatal(err)
	}
	var format matrix.FormatBuilder
	if *formatFlag != "" {
		if format, err = core.ParseFormat(*formatFlag); err != nil {
			fatal(err)
		}
	}

	srv := serve.NewServer(serve.Config{
		Ranks: *ranks, Threads: *threads, Mode: mode, Format: format,
		QueueDepth: *queueDepth, InflightCap: *inflight, BatchMax: *batchMax,
		Sessions: *sessions, ByteBudget: *budgetMB << 20, MaxAttempts: *maxAttempts,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	fmt.Printf("spmv-serve: listening on %s (ranks=%d threads=%d mode=%s sessions=%d)\n",
		ln.Addr(), *ranks, *threads, mode, *sessions)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	select {
	case sig := <-sigCh:
		fmt.Printf("spmv-serve: %v, draining\n", sig)
	case err := <-errCh:
		fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	// Drain first: new admissions fail fast with 503 while queued and
	// in-flight work finishes, so Shutdown's wait for open connections
	// below is over requests that are actually completing.
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "spmv-serve: drain: %v (shutting down with work in flight)\n", err)
	}
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "spmv-serve: http shutdown: %v\n", err)
	}
	if err := srv.Close(); err != nil {
		fatal(err)
	}
	st := srv.Stats()
	fmt.Printf("spmv-serve: done (%d completed, %d rejected, %d failed, %d batches, %d restarts)\n",
		st.Completed, st.Rejected, st.Failed, st.Batches, st.Restarts)
}

func fatal(err error) {
	if errors.Is(err, http.ErrServerClosed) {
		return
	}
	fmt.Fprintf(os.Stderr, "spmv-serve: %v\n", err)
	os.Exit(1)
}
