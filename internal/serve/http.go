package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"

	"repro/internal/core"
	"repro/internal/matrix"
)

// RegisterRequest is the wire form of POST /v1/register. Mode and Format
// default to the server's configuration; invalid tokens yield a 400 whose
// message enumerates the valid spellings (core.ParseMode / ParseFormat).
type RegisterRequest struct {
	Name   string `json:"name"`
	Spec   Spec   `json:"spec"`
	Mode   string `json:"mode,omitempty"`
	Format string `json:"format,omitempty"`
}

// OpRequest is the wire form of POST /v1/mul and /v1/solve.
type OpRequest struct {
	Tenant string    `json:"tenant"`
	Matrix string    `json:"matrix"`
	Seed   int64     `json:"seed"`
	X      []float64 `json:"x,omitempty"`
	// Mul parameters.
	Iters int `json:"iters,omitempty"`
	// Solve parameters.
	Tol     float64 `json:"tol,omitempty"`
	MaxIter int     `json:"maxiter,omitempty"`
	// Gray-failure parameters: end-to-end deadline from admission
	// (milliseconds, 0 = none) and brown-out shedding priority.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	Priority   int   `json:"priority,omitempty"`
}

type errorBody struct {
	Error string `json:"error"`
}

// request is the wire form as the in-process request it describes.
func (or *OpRequest) request(op Op) *Request {
	return &Request{
		Tenant: or.Tenant, Matrix: or.Matrix, Op: op,
		Seed: or.Seed, X: or.X,
		Iters: or.Iters, Tol: or.Tol, MaxIter: or.MaxIter,
		DeadlineMs: or.DeadlineMs, Priority: or.Priority,
	}
}

// mediaTypeError rejects an op body in an encoding the handler does not
// speak. The HTTP layer maps it to 415.
type mediaTypeError struct{ got string }

func (e *mediaTypeError) Error() string {
	return fmt.Sprintf("serve: unsupported Content-Type %q (send %s or %s)", e.got, ContentTypeJSON, ContentTypeF64)
}

// Handler returns the service's HTTP API:
//
//	POST /v1/register        {name, spec, mode?, format?} → MatrixInfo
//	GET  /v1/matrix/{name}   → MatrixInfo
//	POST /v1/mul             OpRequest → Response (y = A^iters·x)
//	POST /v1/solve           OpRequest → Response (CG solution of A·x = b)
//	GET  /v1/stats           → Stats
//	GET  /healthz            → 200 "ok"
//
// /v1/mul and /v1/solve take their body in one of two encodings, chosen
// by the request's Content-Type, and the 200 response mirrors it:
//
//   - application/json (or no Content-Type): OpRequest and Response as
//     JSON, the form to type into curl;
//   - application/x-spmv-f64: one frame u32 metaLen | meta | u32 n |
//     n × float64, little-endian, where meta is the same OpRequest /
//     Response as JSON with its vector left out and the vector (x in, y
//     out) follows as raw float64 bits. n is 0 (derive x from the seed) or
//     the matrix's row count. This is what Client speaks.
//
// Any other Content-Type is a 415. Everything else — register, matrix,
// stats, and every error on every endpoint — is JSON: an error is always
// {"error": "..."} with the status saying which kind. Admission rejections
// map to 429, unknown matrices to 404, malformed requests to 400 (bad
// JSON, and for a frame: a short header, meta over 4 KB or not JSON, an
// element count that is neither 0 nor the row count, a truncated payload,
// trailing bytes), a body over 64 MB to 413, a missed deadline to 504, and
// a closed or draining server, an open circuit breaker, or a brown-out
// shed to 503. A result JSON cannot represent — a NaN or ±Inf — is a 500
// whose message names the binary encoding, which carries y's bits as they
// are; the frame's meta is JSON too, so a solve whose residual itself is
// non-finite is a 500 in both encodings.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/register", s.handleRegister)
	mux.HandleFunc("GET /v1/matrix/{name}", s.handleMatrix)
	mux.HandleFunc("POST /v1/mul", s.handleOp(OpMul))
	mux.HandleFunc("POST /v1/solve", s.handleOp(OpSolve))
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return mux
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeError(w, bodyError("register body", err))
		return
	}
	mode := s.cfg.Mode
	if req.Mode != "" {
		m, err := core.ParseMode(req.Mode)
		if err != nil {
			writeError(w, &ValidationError{Msg: err.Error()})
			return
		}
		mode = m
	}
	var format matrix.FormatBuilder
	if req.Format != "" {
		f, err := core.ParseFormat(req.Format)
		if err != nil {
			writeError(w, &ValidationError{Msg: err.Error()})
			return
		}
		format = f
	}
	info, err := s.RegisterWith(req.Name, req.Spec, mode, format)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, info)
}

func (s *Server) handleMatrix(w http.ResponseWriter, r *http.Request) {
	info, err := s.Matrix(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, info)
}

func (s *Server) handleOp(op Op) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctype := r.Header.Get("Content-Type")
		if mt, _, err := mime.ParseMediaType(ctype); err == nil {
			ctype = mt
		}
		body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
		var req *Request
		var err error
		switch ctype {
		case ContentTypeF64:
			req, err = s.readOpFrame(body, op)
		case ContentTypeJSON, "":
			var or OpRequest
			if err = json.NewDecoder(body).Decode(&or); err != nil {
				err = bodyError(op.String()+" body", err)
				break
			}
			req = or.request(op)
		default:
			err = &mediaTypeError{got: ctype}
		}
		if err != nil {
			writeError(w, err)
			return
		}
		resp, err := s.Do(req)
		if err != nil {
			writeError(w, err)
			return
		}
		if ctype == ContentTypeF64 {
			writeFrame(w, resp)
			s.recycle(req)
		} else {
			writeJSON(w, resp)
		}
	}
}

// readOpFrame decodes a binary op body. The frame's element count is
// judged — by the request's own validation, then against the matrix's row
// count — before the vector is read, so a frame cannot make the server
// allocate more than the matrix it names justifies. An explicit x is
// decoded into a pooled vector, and prepare then takes y from the pool too;
// recycle hands both back.
func (s *Server) readOpFrame(body io.Reader, op Op) (*Request, error) {
	var or OpRequest
	var req *Request
	x, err := readFrame(body, &or, func(n int) ([]float64, error) {
		if or.X != nil {
			return nil, &ValidationError{Msg: "bad frame: meta carries x; the vector belongs in the payload"}
		}
		req = or.request(op)
		if n == 0 {
			return nil, nil // seed-derived input: Do validates the rest
		}
		if err := req.validate(); err != nil {
			return nil, err
		}
		info, err := s.Matrix(req.Matrix)
		if err != nil {
			return nil, err
		}
		if n != info.Rows {
			return nil, inputLengthError(n, req.Matrix, info.Rows)
		}
		req.xPooled = s.vecs.get(n)
		return *req.xPooled, nil
	})
	if err != nil {
		return nil, err
	}
	req.X = x
	return req, nil
}

// recycle hands a binary op's pooled vectors back once Do has answered it
// and the answer is written. Only a request that succeeded on its first
// attempt is known to be out of every batch's hands: after an error, a
// missed deadline or a retry, an abandoned world may still be reading x or
// writing y, so those vectors are left to the collector.
func (s *Server) recycle(req *Request) {
	if req.xPooled == nil || req.attempts != 1 {
		return
	}
	s.vecs.put(req.xPooled)
	s.vecs.put(req.yPooled)
	req.xPooled, req.yPooled = nil, nil
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.Stats())
}

// bodyError types a failed body read: malformed is the sender's mistake
// (400), over maxBodyBytes keeps its *http.MaxBytesError (413).
func bodyError(what string, err error) error {
	var big *http.MaxBytesError
	if errors.As(err, &big) {
		return err
	}
	return &ValidationError{Msg: "bad " + what + ": " + err.Error()}
}

// writeJSON marshals before it writes, so a value encoding/json refuses —
// a non-finite float — becomes an error response, not a 200 with no body.
func writeJSON(w http.ResponseWriter, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		writeError(w, fmt.Errorf("serve: result is not representable in JSON (%v); request it with Content-Type %s", err, ContentTypeF64))
		return
	}
	writeBody(w, ContentTypeJSON, append(data, '\n'))
}

// writeFrame answers a binary op: the Response minus Y as meta, Y as the
// payload.
func writeFrame(w http.ResponseWriter, resp *Response) {
	meta := *resp
	meta.Y = nil
	bp := framePool.Get().(*[]byte)
	defer framePool.Put(bp)
	frame, err := appendFrame((*bp)[:0], &meta, resp.Y)
	if err != nil {
		writeError(w, err)
		return
	}
	*bp = frame
	writeBody(w, ContentTypeF64, frame)
}

func writeBody(w http.ResponseWriter, ctype string, body []byte) {
	w.Header().Set("Content-Type", ctype)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var rej *RejectError
	var unk *UnknownMatrixError
	var val *ValidationError
	var ddl *core.DeadlineError
	var brk *BreakerError
	var shd *ShedError
	var big *http.MaxBytesError
	var med *mediaTypeError
	switch {
	case errors.As(err, &rej):
		status = http.StatusTooManyRequests
	case errors.As(err, &unk):
		status = http.StatusNotFound
	case errors.As(err, &val):
		status = http.StatusBadRequest
	case errors.As(err, &big):
		status = http.StatusRequestEntityTooLarge
	case errors.As(err, &med):
		status = http.StatusUnsupportedMediaType
	case errors.As(err, &ddl):
		status = http.StatusGatewayTimeout
	case errors.As(err, &brk), errors.As(err, &shd),
		errors.Is(err, ErrClosed), errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", ContentTypeJSON)
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: err.Error()})
}
