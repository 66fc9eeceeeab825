package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"

	"repro/internal/tenant"
)

// Handler exposes the service over HTTP/JSON: the resource-oriented
// /v2 API (httpv2.go) plus two operational endpoints:
//
//	/v2/...        the model, ingest, cluster and stats resources
//	GET /healthz   → ok
//	GET /metrics   → Prometheus text exposition
//
// Every error path — including unknown routes and wrong methods —
// returns the structured /v2 envelope {"error": {code, message,
// request_id}}.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	s.registerV2(mux)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Unknown paths get a structured 404 instead of net/http's plain
	// text; requestID tags every response for cross-log correlation.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeErrorV2(w, r, http.StatusNotFound, codeNotFound,
			fmt.Sprintf("no such endpoint %s %s", r.Method, r.URL.Path), nil)
	})
	var h http.Handler = mux
	if s.cfg.Gate != nil {
		// The admission gate sits inside withObs — its 429/401 envelopes
		// carry the request ID the trace middleware minted — and outside
		// the business mux, so shed requests never reach a worker.
		h = s.cfg.Gate.Middleware(h)
	}
	return s.withObs(h)
}

// errorStatus maps a service error to its HTTP status. Client-caused
// errors (unknown NF, malformed profile, unknown backend/policy) are
// 400; transient server conditions are 503 so retry policies keyed on
// 4xx-vs-5xx retry them; everything else is a scenario the client asked
// for that the service cannot answer (422).
func errorStatus(err error) int {
	switch {
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrClosed), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	}
	return http.StatusUnprocessableEntity
}

// errorStatusReq is errorStatus with the caller's request in hand: a
// cancellation error whose origin is the *request's own context* means
// the client went away, which is 499 (client closed request), not a
// 503 — a 5xx here would feed the tenant gate's windowed error rate
// and let a burst of client disconnects shed healthy traffic.
func errorStatusReq(r *http.Request, err error) int {
	if r.Context().Err() != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return tenant.StatusClientClosedRequest
	}
	return errorStatus(err)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// requestCounter feeds the per-request IDs; the header lets clients and
// the /v2 error envelope name a failing request in bug reports. The
// middleware that assigns (or adopts) the ID is withObs in metrics.go —
// it took over from the old withRequestID when IDs became the trace
// handle too.
var requestCounter atomic.Uint64

type ridKey struct{}

// requestID reads the request's ID back out of the context.
func requestID(r *http.Request) string {
	if rid, ok := r.Context().Value(ridKey{}).(string); ok {
		return rid
	}
	return ""
}
