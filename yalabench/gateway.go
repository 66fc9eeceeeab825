package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/pkg/yalaclient"
)

// The gateway-mixed request mix: shares of single predicts, batch-8
// predicts and ingest writes (a predict, then its measurement), plus a
// model reload after every reloadEvery requests.
const (
	gwPredictShare = 0.70
	gwBatchShare   = 0.15
	gwBatchSize    = 8
	reloadEvery    = 2000
)

// gatewayScenarios is the skewed scenario space: every pool NF at every
// pool profile beside every multiset of up to three pooled competitors
// (12 × 455 = 5460 scenarios over a 4-profile pool), in a seeded order
// that ranks them for the Zipf draw.
func gatewayScenarios(rng *sim.RNG, profs []traffic.Profile) []scenario {
	var items []competitor
	for _, nf := range nfPool {
		for _, p := range profs {
			items = append(items, competitor{nf, p})
		}
	}
	var sets [][]competitor
	var grow func(from int, cur []competitor)
	grow = func(from int, cur []competitor) {
		sets = append(sets, append([]competitor(nil), cur...))
		if len(cur) == 3 {
			return
		}
		for i := from; i < len(items); i++ {
			grow(i, append(cur, items[i]))
		}
	}
	grow(0, nil)
	var out []scenario
	for _, t := range items {
		for _, set := range sets {
			out = append(out, scenario{nf: t.nf, prof: t.prof, comps: set})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1).
type zipf struct{ cdf []float64 }

func newZipf(n int) zipf {
	cdf := make([]float64, n)
	total := 0.0
	for i := range cdf {
		total += 1 / float64(i+1)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return zipf{cdf}
}

func (z zipf) draw(rng *sim.RNG) int {
	return min(sort.SearchFloat64s(z.cdf, rng.Float64()), len(z.cdf)-1)
}

// runGatewayMixed is the gateway-mixed workload: a closed loop of reads
// and writes over HTTP JSON through the gateway to two in-process
// replicas whose hop is yalawire TypeCall.
func runGatewayMixed(r *run) error {
	ctx := context.Background()
	start := time.Now()
	reps := make([]*replica, 2)
	for i := range reps {
		rep, err := startReplica(r.models)
		if err != nil {
			return err
		}
		defer rep.close()
		reps[i] = rep
	}
	// The gateway starts first so its health loop discovers the
	// replicas' wire listeners while the models train.
	gw, err := gateway.New(gateway.Config{Backends: []string{reps[0].url, reps[1].url}})
	if err != nil {
		return err
	}
	defer gw.Close()
	var gwTracing atomic.Pointer[recorder]
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: traceHandler(gwTracing.Load, "gateway", gw.Handler())}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(lis)
	}()
	defer func() {
		srv.Close()
		<-served
	}()

	// Train once on the first replica (SLOMO too: its predicts measure
	// the pool's solo baselines), load the persisted models on the
	// second, then measure the pool's solo baselines on both so cache
	// misses never simulate.
	if err := r.trainModels(reps[0].svc.Registry(), "yala", "slomo"); err != nil {
		return err
	}
	profs := profilePool(sim.NewRNG(r.seed^0x67617465), 4) // "gate"
	type warmJob struct {
		rep  *replica
		nf   string
		prof traffic.Profile
	}
	var jobs []warmJob
	for _, rep := range reps {
		for _, nf := range nfPool {
			for _, p := range profs {
				jobs = append(jobs, warmJob{rep, nf, p})
			}
		}
	}
	if err := parallel(callers, len(jobs), func(i int) error {
		j := jobs[i]
		_, err := j.rep.svc.PredictOn(ctx, "", serve.PredictRequest{NF: j.nf, Profile: serve.SpecOf(j.prof), Backend: "slomo"})
		return err
	}); err != nil {
		return fmt.Errorf("warming solo baselines: %w", err)
	}
	client := newClient("http://" + lis.Addr().String())
	defer client.Close()
	// A reload fans out to every replica; once both count wire
	// requests, the gateway's hops ride yalawire.
	for deadline := time.Now().Add(10 * time.Second); ; {
		if err := client.Reload(ctx, yalaclient.ModelID{NF: nfPool[0]}, "yala"); err != nil {
			return err
		}
		if wireRequests(reps[0]) > 0 && wireRequests(reps[1]) > 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("the gateway never upgraded its replica hops to yalawire")
		}
		time.Sleep(20 * time.Millisecond)
	}

	scs := gatewayScenarios(sim.NewRNG(r.seed^0x736b6577), profs) // "skew"
	z := newZipf(len(scs))
	var requests atomic.Int64
	var reloads atomic.Int64
	op := func(c int, rng *sim.RNG, s *sink) {
		if requests.Add(1)%reloadEvery == 0 {
			nf := nfPool[int(reloads.Add(1))%len(nfPool)]
			t0 := time.Now()
			err := client.Reload(ctx, yalaclient.ModelID{NF: nf}, "yala")
			s.record(time.Since(t0), errText(err))
			return
		}
		u := rng.Float64()
		switch {
		case u < gwPredictShare:
			sc := scs[z.draw(rng)]
			t0 := time.Now()
			got, err := client.Predict(ctx, yalaclient.ModelID{NF: sc.nf}, "", sc.params())
			s.record(time.Since(t0), checkPredict(sc, got, err))
		case u < gwPredictShare+gwBatchShare:
			items := make([]yalaclient.BatchItem, gwBatchSize)
			want := make([]string, gwBatchSize)
			for k := range items {
				sc := scs[z.draw(rng)]
				items[k], want[k] = sc.batchItem(), sc.nf
			}
			t0 := time.Now()
			got, err := client.PredictBatch(ctx, items)
			s.record(time.Since(t0), checkBatch(want, got, err))
		default:
			// Ingest confirms the served model: the measurement is its own
			// prediction within ±0.5%, from one of three sources.
			sc := scs[z.draw(rng)]
			model := yalaclient.ModelID{NF: sc.nf}
			t0 := time.Now()
			got, err := client.Predict(ctx, model, "", sc.params())
			s.record(time.Since(t0), checkPredict(sc, got, err))
			if err != nil {
				return
			}
			m := yalaclient.Measurement{
				Model: model, Profile: clientProfile(sc.prof), Competitors: sc.clientComps(),
				MeasuredPPS: got.PredictedPPS * (1 + 0.01*(rng.Float64()-0.5)),
				Source:      fmt.Sprintf("bench-%d", rng.Intn(3)),
			}
			t0 = time.Now()
			res, err := client.Ingest(ctx, m)
			problem := errText(err)
			if err == nil && res.Accepted != 1 {
				problem = fmt.Sprintf("ingest accepted %d of 1 (quarantined %d)", res.Accepted, res.Quarantined)
			}
			s.record(time.Since(t0), problem)
		}
	}
	// Warm the connections and the hottest keys.
	warm, _ := closedLoopN(r.seed, 50, op)
	r.absorb(warm)
	r.set("setup_s", time.Since(start).Seconds())

	lat, err := r.measured(func(int) ([]time.Duration, error) {
		sinks, elapsed := closedLoop(r.seed, r.seconds, op)
		r.latencyMetrics(windows(sinks, elapsed, closedWindows))
		return r.absorb(sinks), nil
	})
	if err != nil {
		return err
	}
	r.info["replica_wire_requests"] = []float64{value(mustScrape(reps[0]), "yala_requests_total", `transport="wire"`), value(mustScrape(reps[1]), "yala_requests_total", `transport="wire"`)}
	if !r.traced {
		return r.checkDrift(reps)
	}

	gwBefore, err := client.GatewayStats(ctx)
	if err != nil {
		return err
	}
	upBefore, err := scrape(gw.Obs().WriteProm)
	if err != nil {
		return err
	}
	before, err := scrapeReplicas(reps)
	if err != nil {
		return err
	}
	gwTracing.Store(r.trace)
	for _, rep := range reps {
		rep.tracing.Store(r.trace)
	}
	sinks, _ := closedLoop(r.seed+1, r.seconds, op)
	gwTracing.Store(nil)
	for _, rep := range reps {
		rep.tracing.Store(nil)
	}
	after, err := scrapeReplicas(reps)
	if err != nil {
		return err
	}
	upAfter, err := scrape(gw.Obs().WriteProm)
	if err != nil {
		return err
	}
	gwAfter, err := client.GatewayStats(ctx)
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

	// Gateway attribution from spans correlated by X-Request-Id.
	gwSpans := r.trace.layer("gateway", "")
	ids := map[string]bool{}
	for _, s := range gwSpans {
		ids[s.ID] = true
	}
	var hops []span
	for _, s := range r.trace.layer("replica", "") {
		if ids[s.ID] {
			hops = append(hops, s)
		}
	}
	r.set("gateway.self_us", us(mean(selfTimes(gwSpans, hops))))
	up := histDelta(histTotal(upBefore, "gateway_upstream_seconds"), histTotal(upAfter, "gateway_upstream_seconds"))
	r.set("gateway.hop_us", up.meanSeconds()*1e6-us(meanSpan(hops, "")))
	r.set("gateway.batch_us", us(meanSpan(gwSpans, ":batchPredict")))
	r.set("gateway.fanout_ms", ms(meanSpan(gwSpans, ":reload")))
	r.set("feedback.ingest_us", us(meanSpan(hops, "/v2/ingest")))
	edgeHits := float64(gwAfter.EdgeHits - gwBefore.EdgeHits)
	edgeMisses := float64(gwAfter.EdgeMisses - gwBefore.EdgeMisses)
	r.set("gateway.edge_hit_ratio", ratio(edgeHits, edgeHits+edgeMisses))
	r.set("gateway.coalesced", float64(gwAfter.Coalesced-gwBefore.Coalesced))
	r.set("gateway.retries", float64(gwAfter.Retries-gwBefore.Retries))

	// The cost of one model reload from disk, in isolation.
	var loads []time.Duration
	for _, nf := range nfPool {
		reps[0].svc.Reload(serve.BackendYala, nf)
		d, err := r.trace.time("registry", "load", func() error {
			_, err := reps[0].svc.Registry().Model("yala", nf)
			return err
		})
		if err != nil {
			return err
		}
		loads = append(loads, d)
	}
	r.set("registry.load_ms", ms(mean(loads)))
	return r.checkDrift(reps)
}

// checkDrift fails the run if confirming ingests tripped a drift gate,
// and reports the trip count.
func (r *run) checkDrift(reps []*replica) error {
	var trips uint64
	for _, rep := range reps {
		trips += rep.svc.Feedback().Stats().Trips
	}
	r.set("feedback.drift_trips", float64(trips))
	if trips > 0 {
		r.fail("drift gate tripped %d times on measurements that confirm the model", trips)
	}
	return nil
}

func errText(err error) string {
	if err != nil {
		return err.Error()
	}
	return ""
}

func checkPredict(sc scenario, got yalaclient.PredictResult, err error) string {
	switch {
	case err != nil:
		return err.Error()
	case got.NF != sc.nf || !(got.PredictedPPS > 0):
		return fmt.Sprintf("predict %s: implausible answer %+v", sc.nf, got)
	}
	return ""
}

func checkBatch(want []string, got yalaclient.BatchResult, err error) string {
	if err != nil {
		return err.Error()
	}
	if len(got.Responses) != len(want) {
		return fmt.Sprintf("batch of %d answered %d", len(want), len(got.Responses))
	}
	for i, e := range got.Errors {
		if e != "" {
			return fmt.Sprintf("batch element %d: %s", i, e)
		}
	}
	for i, resp := range got.Responses {
		if resp.NF != want[i] || !(resp.PredictedPPS > 0) {
			return fmt.Sprintf("batch element %d: implausible answer %+v", i, resp)
		}
	}
	return ""
}

// wireRequests is how many requests a replica has taken over yalawire.
func wireRequests(rep *replica) float64 {
	return value(mustScrape(rep), "yala_requests_total", `transport="wire"`)
}

// mustScrape scrapes a replica's metrics; the in-process exposition
// cannot fail to render, so an error reads as an empty scrape.
func mustScrape(rep *replica) *obs.Exposition {
	e, err := scrape(rep.svc.WriteMetrics)
	if err != nil {
		return &obs.Exposition{}
	}
	return e
}

// scrapeReplicas merges the replicas' expositions: counters and
// histogram components sum.
func scrapeReplicas(reps []*replica) (*obs.Exposition, error) {
	exps := make([]*obs.Exposition, len(reps))
	for i, rep := range reps {
		e, err := scrape(rep.svc.WriteMetrics)
		if err != nil {
			return nil, err
		}
		exps[i] = e
	}
	return obs.MergeExpositions(exps, func(string) obs.MergeRule { return obs.MergeSum }), nil
}

// histTotal sums one histogram family's count and sum across every
// label set.
func histTotal(e *obs.Exposition, family string) histPoint {
	var h histPoint
	for _, s := range e.Samples {
		switch s.Name {
		case family + "_count":
			h.Count += uint64(s.Value)
		case family + "_sum":
			h.Sum += s.Value
		}
	}
	return h
}

// meanSpan is the mean duration of the spans whose name contains sub.
func meanSpan(spans []span, sub string) time.Duration {
	var ds []time.Duration
	for _, s := range spans {
		if strings.Contains(s.Name, sub) {
			ds = append(ds, s.dur())
		}
	}
	return mean(ds)
}
