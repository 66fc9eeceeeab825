package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/pkg/yalaclient"
)

// warmScenarios is warm-wire's scenario pool: every pool NF at every
// pool profile, alone and beside one seeded competitor (24 scenarios).
func warmScenarios(seed uint64) []scenario {
	rng := sim.NewRNG(seed ^ 0x7761726d) // "warm"
	profs := profilePool(rng, 4)
	var out []scenario
	for _, nf := range nfPool {
		for _, p := range profs {
			out = append(out, scenario{nf: nf, prof: p})
			c := competitor{nf: nfPool[rng.Intn(len(nfPool))], prof: profs[rng.Intn(len(profs))]}
			out = append(out, scenario{nf: nf, prof: p, comps: []competitor{c}})
		}
	}
	return out
}

// runWarmWire is the warm-wire workload: a closed loop of predicts over
// yalawire against one replica whose response cache holds every
// scenario, so each timed request is a cache hit.
func runWarmWire(r *run) error {
	ctx := context.Background()
	start := time.Now()
	rep, err := startReplica(r.models)
	if err != nil {
		return err
	}
	defer rep.close()
	if err := r.trainModels(rep.svc.Registry(), "yala"); err != nil {
		return err
	}
	scs := warmScenarios(r.seed)
	refs := make([]serve.PredictResponse, len(scs))
	if err := parallel(callers, len(scs), func(i int) error {
		var err error
		refs[i], err = rep.svc.PredictOn(ctx, "", scs[i].serveRequest())
		return err
	}); err != nil {
		return fmt.Errorf("reference predicts: %w", err)
	}
	client := newClient(rep.url, yalaclient.WithWire(rep.wireAddr))
	defer client.Close()
	predict := func(rng *sim.RNG, s *sink, rc *recorder) {
		i := rng.Intn(len(scs))
		t0 := time.Now()
		got, err := client.Predict(ctx, yalaclient.ModelID{NF: scs[i].nf}, "", scs[i].params())
		t1 := time.Now()
		rc.add("client", "predict", "", t0, t1)
		problem := ""
		if err != nil {
			problem = err.Error()
		} else {
			problem = sameAnswer(got, refs[i])
		}
		s.record(t1.Sub(t0), problem)
	}
	// Warm the connections: each caller sends every scenario once.
	warm, _ := closedLoopN(r.seed, len(scs), func(c int, rng *sim.RNG, s *sink) { predict(rng, s, nil) })
	r.absorb(warm)
	if !client.WireActive() {
		return fmt.Errorf("client fell back from yalawire to HTTP during warm-up")
	}
	r.set("setup_s", time.Since(start).Seconds())

	lat, err := r.measured(func(int) ([]time.Duration, error) {
		sinks, elapsed := closedLoop(r.seed, r.seconds, func(c int, rng *sim.RNG, s *sink) { predict(rng, s, nil) })
		r.latencyMetrics(windows(sinks, elapsed, closedWindows))
		return r.absorb(sinks), nil
	})
	if err != nil || !r.traced {
		return err
	}

	before, err := scrape(rep.svc.WriteMetrics)
	if err != nil {
		return err
	}
	sinks, _ := closedLoop(r.seed+1, r.seconds, func(c int, rng *sim.RNG, s *sink) { predict(rng, s, r.trace) })
	after, err := scrape(rep.svc.WriteMetrics)
	if err != nil {
		return err
	}
	traced := r.absorb(sinks)
	r.traceOverhead(lat, traced)
	r.serveStages(before, after)
	r.cacheRatio(before, after)
	wireN := counterDelta(value(before, "yala_requests_total", `transport="wire"`), value(after, "yala_requests_total", `transport="wire"`))
	httpN := counterDelta(value(before, "yala_requests_total", `transport="http"`), value(after, "yala_requests_total", `transport="http"`))
	r.set("wire.request_share", ratio(wireN, wireN+httpN))

	// In-process costs of the two layers a hit crosses: the service's
	// hit path and the four codec steps of one wire exchange.
	reqs := make([]serve.PredictRequest, len(scs))
	for i, sc := range scs {
		reqs[i] = sc.serveRequest()
	}
	k := 0
	hitNS, hitAllocs := perOp(50000, func() {
		rep.svc.PredictOn(ctx, "", reqs[k%len(reqs)])
		k++
	})
	r.set("serve.hit_ns", hitNS)
	r.set("serve.hit_allocs", hitAllocs)
	wreqs := make([]wire.PredictRequest, len(scs))
	wresps := make([]wire.PredictResponse, len(scs))
	for i, sc := range scs {
		wreqs[i], wresps[i] = sc.wireRequest(), wireResponse(refs[i])
	}
	buf := make([]byte, 0, 4096)
	k = 0
	codecNS, codecAllocs := perOp(50000, func() {
		i := k % len(scs)
		k++
		buf = wire.AppendPredictRequest(buf[:0], &wreqs[i])
		wire.DecodePredictRequest(buf)
		buf = wire.AppendPredictResponse(buf[:0], &wresps[i])
		wire.DecodePredictResponse(buf)
	})
	r.set("wire.codec_ns", codecNS)
	r.set("wire.codec_allocs", codecAllocs)
	// What the client saw at the median, less what the floor, the
	// codec and the server's own request time account for. The server's
	// request decode is inside both its request time and the codec
	// cost, so this undercounts by that one step.
	server := histDelta(hist(before, "yala_request_seconds", ""), hist(after, "yala_request_seconds", ""))
	r.set("serve.unattributed_us", us(quantile(traced, 0.5))-r.floors.wireP50us-codecNS/1000-server.meanSeconds()*1e6)
	return nil
}
