package serve

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/tenant"
	"repro/internal/wire"
)

// This file mounts the yalawire binary protocol (internal/wire) on a
// Service: a persistent-connection listener that shares the Service's
// cache, worker pool, tenant gate and observability with the HTTP
// front end. Typed frames (TypePredict, TypeBatch) run the hot path
// with zero JSON; TypeCall tunnels any other request through the real
// HTTP handler so middleware semantics are byte-identical.

// wireTransportKey marks a request context as having arrived over the
// wire listener, so withObs attributes it to the right transport
// counter.
type wireTransportKey struct{}

// WireAddr returns the advertised yalawire listener address, "" when
// none is mounted.
func (s *Service) WireAddr() string {
	if p := s.wireAddr.Load(); p != nil {
		return *p
	}
	return ""
}

// WireServer is a running yalawire listener bound to a Service.
type WireServer struct {
	svc     *Service
	handler http.Handler
	lis     net.Listener
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// ServeWire mounts a yalawire listener on the service. handler is the
// HTTP handler TypeCall frames dispatch through (normally the value of
// s.Handler(); nil disables TypeCall). The listener address is
// advertised in /v2/stats as wire_addr until Close.
func (s *Service) ServeWire(lis net.Listener, handler http.Handler) *WireServer {
	ctx, cancel := context.WithCancel(context.Background())
	ws := &WireServer{
		svc:     s,
		handler: handler,
		lis:     lis,
		ctx:     ctx,
		cancel:  cancel,
		conns:   map[net.Conn]struct{}{},
	}
	addr := lis.Addr().String()
	s.wireAddr.Store(&addr)
	ws.wg.Add(1)
	go ws.acceptLoop()
	return ws
}

// Addr returns the listener's address.
func (ws *WireServer) Addr() string { return ws.lis.Addr().String() }

// Close stops accepting, tears down every connection, and withdraws
// the wire_addr advertisement.
func (ws *WireServer) Close() {
	ws.cancel()
	ws.svc.wireAddr.Store(new(string))
	ws.lis.Close()
	ws.mu.Lock()
	for c := range ws.conns {
		c.Close()
	}
	ws.mu.Unlock()
	ws.wg.Wait()
}

func (ws *WireServer) acceptLoop() {
	defer ws.wg.Done()
	for {
		c, err := ws.lis.Accept()
		if err != nil {
			return
		}
		ws.mu.Lock()
		ws.conns[c] = struct{}{}
		ws.mu.Unlock()
		ws.wg.Add(1)
		go ws.serveConn(c)
	}
}

// serveConn drives one connection: a Hello handshake binding the API
// key, then strictly serial request frames until hangup or a framing
// error. Frame-level damage tears the connection down — clients fall
// back to HTTP and redial.
func (ws *WireServer) serveConn(c net.Conn) {
	defer ws.wg.Done()
	defer func() {
		ws.mu.Lock()
		delete(ws.conns, c)
		ws.mu.Unlock()
		c.Close()
	}()
	fr := wire.NewFramer(c)
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	f, err := fr.ReadFrame()
	if err != nil || f.Type != wire.TypeHello {
		return
	}
	apiKey, err := wire.DecodeHello(f.Payload)
	if err != nil {
		return
	}
	if fr.WriteFrame(wire.TypeHelloAck, f.ID, nil) != nil {
		return
	}
	c.SetReadDeadline(time.Time{})
	for {
		f, err := fr.ReadFrame()
		if err != nil {
			return
		}
		if !ws.serveFrame(fr, f, apiKey) {
			return
		}
	}
}

// serveFrame answers one request frame; false tears the conn down.
func (ws *WireServer) serveFrame(fr *wire.Framer, f wire.Frame, apiKey string) bool {
	switch f.Type {
	case wire.TypeEcho:
		// Pure transport floor: no gate, no counters, no serving.
		return fr.WriteFrame(wire.TypeEchoAck, f.ID, f.Payload) == nil
	case wire.TypePredict:
		return ws.servePredict(fr, f, apiKey)
	case wire.TypeBatch:
		return ws.serveBatch(fr, f, apiKey)
	case wire.TypeCall:
		return ws.serveCall(fr, f, apiKey)
	default:
		return ws.writeError(fr, f.ID, &wire.ErrorFrame{
			Status: http.StatusBadRequest, Code: codeInvalidArgument,
			Message: fmt.Sprintf("unknown frame type %d", f.Type),
		})
	}
}

func (ws *WireServer) writeError(fr *wire.Framer, id uint64, e *wire.ErrorFrame) bool {
	buf := wire.AppendError(wire.GetBuf(), e)
	err := fr.WriteFrame(wire.TypeError, id, buf)
	wire.PutBuf(buf)
	return err == nil
}

// admitWire runs the tenant gate for a typed frame. It mirrors the
// HTTP middleware minus the tarpit (a stalled wire conn would stall
// its whole pipeline). ok=false means the refusal frame was the
// answer; done must be called once with the final status when ok.
func (ws *WireServer) admitWire(fr *wire.Framer, id uint64, apiKey string, class tenant.Class, rid string) (done func(status int, dur time.Duration), ok, connOK bool) {
	g := ws.svc.cfg.Gate
	if g == nil {
		return func(int, time.Duration) {}, true, true
	}
	d := g.Admit(apiKey, class, time.Now())
	if !d.OK {
		connOK = ws.writeError(fr, id, &wire.ErrorFrame{
			Status: d.Status, Code: d.Code, Message: d.Message,
			RequestID: rid, RetryAfterSec: d.RetryAfter.Seconds(),
		})
		return nil, false, connOK
	}
	return func(status int, dur time.Duration) {
		if status == tenant.StatusClientClosedRequest {
			return
		}
		g.Observe(d, dur, status >= http.StatusInternalServerError)
	}, true, true
}

// wireReqContext builds one wire request's context: the server's
// lifetime context plus a fresh request ID and stage trace, marked
// with the wire transport.
func (ws *WireServer) wireReqContext() (context.Context, *obs.Trace, string) {
	rid := fmt.Sprintf("wire-%06d", requestCounter.Add(1))
	tr := obs.NewTrace(rid)
	ctx := context.WithValue(ws.ctx, ridKey{}, rid)
	ctx = context.WithValue(ctx, wireTransportKey{}, true)
	return obs.ContextWithTrace(ctx, tr), tr, rid
}

// observeWire feeds the shared request/stage histograms, mirroring
// withObs for a typed wire request.
func (ws *WireServer) observeWire(tr *obs.Trace, dur time.Duration) {
	s := ws.svc
	s.wireRequests.Add(1)
	s.reqSeconds.Observe(dur.Seconds())
	for name, d := range tr.Stages() {
		s.stageHistogram(name).Observe(d.Seconds())
	}
}

// toWireResponse converts a service response to its wire shape.
// PerResource is sorted by resource name so one answer always encodes
// to the same bytes (PerResourcePPS is a map, whose iteration order is
// random).
func toWireResponse(r *PredictResponse) wire.PredictResponse {
	out := wire.PredictResponse{
		NF:      r.NF,
		HW:      r.HW,
		Backend: string(r.Backend),
		Profile: wire.Profile{
			Flows:   r.Profile.Flows,
			PktSize: r.Profile.PktSize,
			MTBR:    r.Profile.MTBR,
		},
		SoloPPS:      r.SoloPPS,
		PredictedPPS: r.PredictedPPS,
		Bottleneck:   r.Bottleneck,
	}
	if len(r.PerResourcePPS) > 0 {
		out.PerResource = make([]wire.ResourcePPS, 0, len(r.PerResourcePPS))
		for res, pps := range r.PerResourcePPS {
			out.PerResource = append(out.PerResource, wire.ResourcePPS{Resource: res, PPS: pps})
		}
		slices.SortFunc(out.PerResource, func(a, b wire.ResourcePPS) int {
			return strings.Compare(a.Resource, b.Resource)
		})
	}
	return out
}

// fromWireRequest converts a wire predict request to the service shape
// plus its hardware qualifier.
func fromWireRequest(w *wire.PredictRequest) (string, PredictRequest) {
	req := PredictRequest{
		NF:      w.NF,
		Backend: w.Backend,
		Profile: ProfileSpec{Flows: w.Profile.Flows, PktSize: w.Profile.PktSize, MTBR: w.Profile.MTBR},
	}
	if len(w.Competitors) > 0 {
		req.Competitors = make([]CompetitorSpec, len(w.Competitors))
		for i, c := range w.Competitors {
			req.Competitors[i] = CompetitorSpec{
				Name:    c.Name,
				Profile: ProfileSpec{Flows: c.Profile.Flows, PktSize: c.Profile.PktSize, MTBR: c.Profile.MTBR},
			}
		}
	}
	return w.HW, req
}

// serviceErrorFrame maps a service error exactly like the /v2 JSON
// envelope does.
func serviceErrorFrame(err error, rid string) *wire.ErrorFrame {
	return &wire.ErrorFrame{
		Status:    errorStatus(err),
		Code:      errorCode(err),
		Message:   err.Error(),
		RequestID: rid,
	}
}

func (ws *WireServer) servePredict(fr *wire.Framer, f wire.Frame, apiKey string) bool {
	start := time.Now()
	ctx, tr, rid := ws.wireReqContext()
	done, ok, connOK := ws.admitWire(fr, f.ID, apiKey, tenant.ClassInteractive, rid)
	if !ok {
		return connOK
	}
	wreq, err := wire.DecodePredictRequest(f.Payload)
	if err != nil {
		done(http.StatusBadRequest, time.Since(start))
		return ws.writeError(fr, f.ID, &wire.ErrorFrame{
			Status: http.StatusBadRequest, Code: codeInvalidArgument,
			Message: err.Error(), RequestID: rid,
		})
	}
	hw, req := fromWireRequest(&wreq)
	resp, err := ws.svc.PredictOn(ctx, hw, req)
	dur := time.Since(start)
	ws.observeWire(tr, dur)
	if err != nil {
		e := serviceErrorFrame(err, rid)
		done(e.Status, dur)
		return ws.writeError(fr, f.ID, e)
	}
	done(http.StatusOK, dur)
	wresp := toWireResponse(&resp)
	esp := obs.StartSpan(ctx, "encode")
	buf := wire.AppendPredictResponse(wire.GetBuf(), &wresp)
	esp.End()
	werr := fr.WriteFrame(wire.TypePredictResp, f.ID, buf)
	wire.PutBuf(buf)
	return werr == nil
}

func (ws *WireServer) serveBatch(fr *wire.Framer, f wire.Frame, apiKey string) bool {
	start := time.Now()
	ctx, tr, rid := ws.wireReqContext()
	done, ok, connOK := ws.admitWire(fr, f.ID, apiKey, tenant.ClassBulk, rid)
	if !ok {
		return connOK
	}
	wreq, err := wire.DecodeBatchRequest(f.Payload)
	if err != nil {
		done(http.StatusBadRequest, time.Since(start))
		return ws.writeError(fr, f.ID, &wire.ErrorFrame{
			Status: http.StatusBadRequest, Code: codeInvalidArgument,
			Message: err.Error(), RequestID: rid,
		})
	}
	items := make([]hwPredict, len(wreq.Requests))
	for i := range wreq.Requests {
		items[i].hw, items[i].req = fromWireRequest(&wreq.Requests[i])
	}
	resp, err := ws.svc.predictBatch(ctx, items)
	dur := time.Since(start)
	ws.observeWire(tr, dur)
	if err != nil {
		e := serviceErrorFrame(err, rid)
		done(e.Status, dur)
		return ws.writeError(fr, f.ID, e)
	}
	done(http.StatusOK, dur)
	wresp := wire.BatchResponse{Responses: make([]wire.PredictResponse, len(resp.Responses)), Errors: resp.Errors}
	for i := range resp.Responses {
		wresp.Responses[i] = toWireResponse(&resp.Responses[i])
	}
	buf := wire.AppendBatchResponse(wire.GetBuf(), &wresp)
	werr := fr.WriteFrame(wire.TypeBatchResp, f.ID, buf)
	wire.PutBuf(buf)
	return werr == nil
}

// callForwardHeaders are the response headers a TypeCallResp carries
// back — the same set the gateway forwards downstream, plus
// Retry-After so wire clients see 429 backoff hints.
var callForwardHeaders = []string{"Content-Type", "X-Request-Id", "Allow", "Retry-After", "X-Gateway-Cache"}

// memResponse is the in-memory http.ResponseWriter TypeCall dispatch
// renders into.
type memResponse struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
}

func (m *memResponse) Header() http.Header { return m.hdr }
func (m *memResponse) WriteHeader(code int) {
	if m.status == 0 {
		m.status = code
	}
}
func (m *memResponse) Write(b []byte) (int, error) {
	m.WriteHeader(http.StatusOK)
	return m.buf.Write(b)
}

// serveCall tunnels one HTTP-shaped request through the real HTTP
// handler: the tenant gate, withObs, routing, caching and error
// envelopes all behave exactly as over TCP HTTP, so wire upstreams
// never diverge semantically from JSON upstreams.
func (ws *WireServer) serveCall(fr *wire.Framer, f wire.Frame, apiKey string) bool {
	call, err := wire.DecodeCall(f.Payload)
	if err != nil {
		return ws.writeError(fr, f.ID, &wire.ErrorFrame{
			Status: http.StatusBadRequest, Code: codeInvalidArgument, Message: err.Error(),
		})
	}
	if ws.handler == nil {
		return ws.writeError(fr, f.ID, &wire.ErrorFrame{
			Status: http.StatusNotFound, Code: codeNotFound,
			Message: "wire listener mounted without an HTTP handler; TypeCall is disabled",
		})
	}
	ctx := context.WithValue(ws.ctx, wireTransportKey{}, true)
	req, err := http.NewRequestWithContext(ctx, call.Method, call.URI, bytes.NewReader(call.Body))
	if err != nil {
		return ws.writeError(fr, f.ID, &wire.ErrorFrame{
			Status: http.StatusBadRequest, Code: codeInvalidArgument, Message: err.Error(),
		})
	}
	if call.ContentType != "" {
		req.Header.Set("Content-Type", call.ContentType)
	}
	if call.RequestID != "" {
		req.Header.Set("X-Request-Id", call.RequestID)
	}
	if apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+apiKey)
	}
	rec := &memResponse{hdr: http.Header{}}
	ws.handler.ServeHTTP(rec, req)
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	out := wire.CallResp{Status: rec.status, Body: rec.buf.Bytes()}
	for _, k := range callForwardHeaders {
		if v := rec.hdr.Get(k); v != "" {
			out.Headers = append(out.Headers, wire.HeaderKV{Key: k, Value: v})
		}
	}
	buf := wire.AppendCallResp(wire.GetBuf(), &out)
	werr := fr.WriteFrame(wire.TypeCallResp, f.ID, buf)
	wire.PutBuf(buf)
	return werr == nil
}
