package serve

import (
	"net"
	"net/http"
	"testing"
)

// BenchmarkWireMul is the benchmark harness's serve-mul-http request — POST
// /v1/mul, explicit x, n = 4000, iters = 4, 2 ranks, a loopback listener —
// once per encoding, so the wire's cost and B/op are one
// `go test -bench WireMul -benchmem` away.
func BenchmarkWireMul(b *testing.B) {
	spec := Spec{Kind: "random", N: 4000, Bandwidth: 64, PerRow: 8, Seed: 1, SPD: true}
	s := NewServer(Config{Ranks: 2, Sessions: 1})
	defer s.Close()
	if _, err := register(s, "m", spec); err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln) // returns when hs.Close closes the listener
	defer hs.Close()
	c := &Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: &http.Transport{}}}
	defer c.HTTP.CloseIdleConnections()

	x := make([]float64, spec.N)
	FillVector(x, 1)
	req := OpRequest{Tenant: "t", Matrix: "m", X: x, Iters: 4}
	for _, enc := range []struct {
		name string
		mul  func() (*Response, error)
	}{
		{"json", func() (*Response, error) {
			var resp Response
			return &resp, c.post("/v1/mul", req, &resp)
		}},
		{"f64", func() (*Response, error) { return c.Mul(req) }},
	} {
		b.Run(enc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				resp, err := enc.mul()
				if err != nil {
					b.Fatal(err)
				}
				if len(resp.Y) != spec.N {
					b.Fatalf("y has %d rows, want %d", len(resp.Y), spec.N)
				}
			}
		})
	}
}
