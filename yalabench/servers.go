package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/nicsim"
	"repro/internal/serve"
	"repro/pkg/yalaclient"
)

// nfPool is every workload's NF pool: two memory-bound NFs and one
// regex-accelerator NF, so both contention sources appear. NIDS trains
// longest, so it is listed first and set-up starts it first.
var nfPool = []string{"NIDS", "FlowStats", "NAT"}

// callers is the load generator's goroutine and connection budget.
const callers = 2

// replica is one serve.Service behind an HTTP listener and a yalawire
// listener, both in this process, with its HTTP handler wrapped so a
// traced run records a span per request.
type replica struct {
	svc      *serve.Service
	url      string
	wireAddr string
	srv      *http.Server
	ws       *serve.WireServer
	done     chan struct{}
	// tracing is the recorder the wrapped handler records into; nil
	// while untraced.
	tracing atomic.Pointer[recorder]
}

// startReplica boots a service on loopback listeners. modelDir is
// shared by replicas that should share persisted models. While tracing
// is set, each HTTP request (and each gateway hop tunneled over the
// wire listener) is one "replica" span.
func startReplica(modelDir string) (*replica, error) {
	svc := serve.NewService(serve.ServiceConfig{Registry: serve.RegistryConfig{Dir: modelDir}})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	wlis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		lis.Close()
		svc.Close()
		return nil, err
	}
	rep := &replica{svc: svc, url: "http://" + lis.Addr().String(), done: make(chan struct{})}
	h := traceHandler(rep.tracing.Load, "replica", svc.Handler())
	rep.srv = &http.Server{Handler: h}
	rep.ws = svc.ServeWire(wlis, h)
	rep.wireAddr = rep.ws.Addr()
	go func() {
		defer close(rep.done)
		rep.srv.Serve(lis)
	}()
	return rep, nil
}

// close stops the listeners, waits for the HTTP server to exit and
// drains the service.
func (rep *replica) close() {
	rep.srv.Close()
	<-rep.done
	rep.ws.Close()
	rep.svc.Close()
}

// newClient builds an SDK client limited to the benchmark's connection
// budget.
func newClient(url string, opts ...yalaclient.Option) *yalaclient.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost = callers
	tr.MaxIdleConnsPerHost = callers
	opts = append([]yalaclient.Option{yalaclient.WithHTTPClient(&http.Client{Transport: tr})}, opts...)
	return yalaclient.New(url, opts...)
}

// parallel runs fn(0..n-1) on workers goroutines in index order and
// returns the first error.
func parallel(workers, n int, fn func(i int) error) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// trainModels resolves every (backend, NF) model through the registry
// of an empty model directory, which trains and persists each on
// demand, on the caller budget. Each resolution is one span; the mean
// per backend becomes registry.train_<backend>_s.
func (r *run) trainModels(reg *serve.ModelRegistry, backends ...string) error {
	type job struct{ backend, nf string }
	var jobs []job
	for _, b := range backends {
		for _, nf := range nfPool {
			jobs = append(jobs, job{b, nf})
		}
	}
	durs := make([]time.Duration, len(jobs))
	err := parallel(callers, len(jobs), func(i int) error {
		j := jobs[i]
		d, err := r.trace.time("registry", "train."+j.backend, func() error {
			_, err := reg.ModelOn(j.backend, "", nicsim.Config{}, j.nf)
			return err
		})
		durs[i] = d
		return err
	})
	if err != nil {
		return err
	}
	if n, last := reg.PersistFailures(); n > 0 {
		return fmt.Errorf("%d models failed to persist: %s", n, last)
	}
	for _, b := range backends {
		var sum time.Duration
		n := 0
		for i, j := range jobs {
			if j.backend == b {
				sum += durs[i]
				n++
			}
		}
		r.set("registry.train_"+b+"_s", (sum / time.Duration(n)).Seconds())
	}
	return nil
}

// floors are the box's transport floors: a yalawire echo round trip and
// an empty-handler HTTP round trip, each at the benchmark's caller
// budget.
type floors struct {
	wireP50us, httpP50us, httpRPS float64
}

// measureFloors boots a model-less service with a wire listener and an
// empty HTTP handler and measures both floors.
func measureFloors() (floors, error) {
	svc := serve.NewService(serve.ServiceConfig{})
	defer svc.Close()
	wlis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return floors{}, err
	}
	ws := svc.ServeWire(wlis, nil)
	defer ws.Close()
	rep, err := serve.WireEchoFloor(ws.Addr(), callers, 20000, 64)
	if err != nil {
		return floors{}, err
	}
	if rep.Errors > 0 {
		return floors{}, fmt.Errorf("wire echo floor: %d errors", rep.Errors)
	}
	p50, rps, err := httpFloor(4000)
	if err != nil {
		return floors{}, err
	}
	return floors{wireP50us: us(rep.P50), httpP50us: us(p50), httpRPS: rps}, nil
}

// httpFloor measures n round trips against an empty handler.
func httpFloor(n int) (p50 time.Duration, rps float64, err error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(lis)
	}()
	defer func() {
		srv.Close()
		<-done
	}()
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost = callers
	tr.MaxIdleConnsPerHost = callers
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	url := "http://" + lis.Addr().String() + "/"
	lat := make([][]time.Duration, callers)
	start := time.Now()
	err = parallel(callers, callers, func(c int) error {
		for i := 0; i < n/callers; i++ {
			t0 := time.Now()
			req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, url, nil)
			if err != nil {
				return err
			}
			resp, err := hc.Do(req)
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			lat[c] = append(lat[c], time.Since(t0))
		}
		return nil
	})
	elapsed := time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	sorted := sortedCopy(lat...)
	return quantile(sorted, 0.5), float64(len(sorted)) / elapsed.Seconds(), nil
}
