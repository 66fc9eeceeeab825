package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/backend"
	"repro/internal/nicsim"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/traffic"
	"repro/pkg/yalaclient"
)

// coldRate is cold-traffic's offered load in requests per second: about
// half the 8.3 req/s this request mix saturates at on a 2-core box.
const coldRate = 4.0

// coldRequest is one cold-traffic arrival: an NF arriving with a fresh
// traffic profile beside pooled residents. Three in four ask whether
// it can be admitted under its SLA (a yala admission check, which must
// measure the newcomer solo); one in four is a yala-vs-SLOMO compare
// with ground truth (a solo measurement for SLOMO plus a co-run).
type coldRequest struct {
	scenario
	sla     float64
	compare bool
}

// coldRequests draws n arrivals: fresh target profiles, one resident
// from the pooled profiles, and every fourth arrival a compare, so two
// compares rarely hold both callers at once. Each (kind, NF) pair gets an equal share of the requests,
// and its targets are a Latin hypercube sample over the bounds
// traffic.Random draws from: every profile is still a fresh seeded
// draw, but the spread of simulation cost within a run no longer varies
// from seed to seed.
func coldRequests(rng *sim.RNG, n int, compPool []traffic.Profile) []coldRequest {
	reqs := make([]coldRequest, n)
	for i := 3; i < n; i += 4 {
		reqs[i].compare = true
	}
	for _, compare := range []bool{false, true} {
		var idx []int
		for i := range reqs {
			if reqs[i].compare == compare {
				idx = append(idx, i)
			}
		}
		// Deal the kind's positions to the NFs in seeded order, then give
		// each NF its own Latin hypercube of profiles.
		order := rng.Perm(len(idx))
		for k, nf := range nfPool {
			var mine []int
			for j := k; j < len(order); j += len(nfPool) {
				mine = append(mine, idx[order[j]])
			}
			for j, p := range latinProfiles(rng, len(mine)) {
				reqs[mine[j]].scenario = scenario{nf: nf, prof: p}
			}
		}
	}
	for i := range reqs {
		reqs[i].comps = []competitor{{nf: nfPool[rng.Intn(len(nfPool))], prof: compPool[rng.Intn(len(compPool))]}}
		reqs[i].sla = rng.Range(0.05, 0.2)
	}
	return reqs
}

// latinProfiles draws n profiles whose every attribute takes one value
// from each of n equal slices of its bounds, in seeded order.
func latinProfiles(rng *sim.RNG, n int) []traffic.Profile {
	out := make([]traffic.Profile, n)
	for _, a := range []traffic.Attribute{traffic.AttrFlows, traffic.AttrPktSize, traffic.AttrMTBR} {
		lo, hi := a.Bounds()
		for i, slot := range rng.Perm(n) {
			v := lo + (hi-lo)*(float64(slot)+rng.Float64())/float64(n)
			switch a {
			case traffic.AttrFlows:
				out[i].Flows = int(v)
			case traffic.AttrPktSize:
				out[i].PktSize = int(v)
			default:
				out[i].MTBR = v
			}
		}
	}
	return out
}

// evenOffsets schedules n arrivals at a fixed rate over window.
func evenOffsets(n int, window time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = window * time.Duration(i) / time.Duration(n)
	}
	return out
}

// coldOutcome is what one open-loop phase of cold-traffic produced.
type coldOutcome struct {
	start    time.Time
	samples  []openSample
	reqs     []coldRequest
	yalaErr  []float64
	slomoErr []float64
}

// runColdTraffic is the cold-traffic workload: an open loop of
// independent arrivals over HTTP JSON to one replica, every one a
// response-cache miss.
func runColdTraffic(r *run) error {
	ctx := context.Background()
	start := time.Now()
	rep, err := startReplica(r.models)
	if err != nil {
		return err
	}
	defer rep.close()
	if err := r.trainModels(rep.svc.Registry(), "yala", "slomo"); err != nil {
		return err
	}
	// The competitor pool's solo measurements are taken once here (a
	// SLOMO predict measures its target solo), so requests share them.
	compPool := profilePool(sim.NewRNG(r.seed^0x706f6f6c), 3) // "pool"
	type pooled struct {
		nf   string
		prof traffic.Profile
	}
	var pool []pooled
	for _, nf := range nfPool {
		for _, p := range compPool {
			pool = append(pool, pooled{nf, p})
		}
	}
	if err := parallel(callers, len(pool), func(i int) error {
		_, err := rep.svc.PredictOn(ctx, "", serve.PredictRequest{NF: pool[i].nf, Profile: serve.SpecOf(pool[i].prof), Backend: "slomo"})
		return err
	}); err != nil {
		return fmt.Errorf("warming the competitor pool: %w", err)
	}
	client := newClient(rep.url)
	defer client.Close()
	if err := client.Health(ctx); err != nil {
		return err
	}
	r.set("setup_s", time.Since(start).Seconds())

	n := int(coldRate * r.seconds.Seconds())
	phase := func(salt uint64) coldOutcome {
		rng := sim.NewRNG(r.seed ^ salt)
		out := coldOutcome{reqs: coldRequests(rng, n, compPool)}
		offsets := evenOffsets(n, r.seconds)
		yalaErr := make([]float64, n)
		slomoErr := make([]float64, n)
		out.start = time.Now()
		out.samples = runOpenLoop(wallClock{out.start}, offsets, callers, func(i int) error {
			req := out.reqs[i]
			model := yalaclient.ModelID{NF: req.nf}
			if !req.compare {
				residents := make([]yalaclient.Resident, len(req.comps))
				for k, c := range req.comps {
					residents[k] = yalaclient.Resident{Name: c.nf, Profile: clientProfile(c.prof), SLA: req.sla}
				}
				got, err := client.Admit(ctx, model, "", yalaclient.AdmitParams{Residents: residents, Profile: clientProfile(req.prof), SLA: req.sla})
				if err != nil {
					return err
				}
				if got.Backend != "yala" || got.Residents != len(residents) || got.Admit != (got.Reason == "") {
					return fmt.Errorf("admit %s: inconsistent answer %+v", req.nf, got)
				}
				return nil
			}
			got, err := client.Compare(ctx, model, yalaclient.CompareParams{Profile: clientProfile(req.prof), Competitors: req.clientComps(), GroundTruth: true})
			if err != nil {
				return err
			}
			if problem := checkCompare(got); problem != "" {
				return fmt.Errorf("compare %s: %s", req.nf, problem)
			}
			yalaErr[i], slomoErr[i] = got.YalaErrPct, got.SLOMOErrPct
			return nil
		})
		for i, req := range out.reqs {
			if req.compare && out.samples[i].err == nil {
				out.yalaErr = append(out.yalaErr, yalaErr[i])
				out.slomoErr = append(out.slomoErr, slomoErr[i])
			}
		}
		return out
	}
	// A repeated phase draws fresh arrivals: the first phase's are cached.
	lat, err := r.measured(func(attempt int) ([]time.Duration, error) {
		untraced := phase(0x636f6c64 + uint64(attempt)) // "cold"
		lat := r.absorbOpen(untraced.samples)
		r.latencyMetrics([]window{{lat: lat, wall: openElapsed(untraced.samples, r.seconds), done: len(lat)}})
		var admitLat, compareLat, lateness []time.Duration
		for i, s := range untraced.samples {
			if untraced.reqs[i].compare {
				compareLat = append(compareLat, s.latency())
			} else {
				admitLat = append(admitLat, s.latency())
			}
			lateness = append(lateness, s.lateness())
		}
		r.info["admit_p50_ms"] = ms(quantile(sortedCopy(admitLat), 0.5))
		r.info["compare_p50_ms"] = ms(quantile(sortedCopy(compareLat), 0.5))
		r.info["late_p50_ms"] = ms(quantile(sortedCopy(lateness), 0.5))
		r.info["mape_yala_pct"] = meanOf(untraced.yalaErr)
		r.info["mape_slomo_pct"] = meanOf(untraced.slomoErr)
		return lat, nil
	})
	if err != nil || !r.traced {
		return err
	}

	before, err := scrape(rep.svc.WriteMetrics)
	if err != nil {
		return err
	}
	rep.tracing.Store(r.trace)
	traced := phase(0x74726163) // "trac"
	rep.tracing.Store(nil)
	after, err := scrape(rep.svc.WriteMetrics)
	if err != nil {
		return err
	}
	tlat := r.absorbOpen(traced.samples)
	for _, s := range traced.samples {
		r.trace.add("client", "request", "", traced.start.Add(s.sent), traced.start.Add(s.done))
	}
	r.traceOverhead(lat, tlat)
	r.serveStages(before, after)
	r.cacheRatio(before, after)
	late := make([]time.Duration, len(traced.samples))
	for i, s := range traced.samples {
		late[i] = s.lateness()
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	r.set("loadgen.late_p99_ms", ms(quantile(late, 0.99)))
	r.set("accuracy.mape_yala_pct", meanOf(traced.yalaErr))
	r.set("accuracy.mape_slomo_pct", meanOf(traced.slomoErr))
	return r.coldLayers(rep, traced, compPool)
}

// coldLayers times, in process and in isolation, the work a cold
// request does below the service: the solo simulation, the ground-truth
// co-run and each backend's prediction; the predict stage's excess over
// that isolated compute is queue wait.
func (r *run) coldLayers(rep *replica, traced coldOutcome, compPool []traffic.Profile) error {
	const sample = 6
	var soloDur, corunDur []time.Duration
	var soloMs, corunMs float64
	var compares int
	for i := 0; i < len(traced.reqs) && (len(soloDur) < sample || len(corunDur) < sample/2); i++ {
		req := traced.reqs[i]
		if len(soloDur) < sample {
			d, err := r.trace.time("nicsim", "solo", func() error {
				_, err := testbed.New(nicsim.BlueField2(), 1).SoloNF(req.nf, req.prof)
				return err
			})
			if err != nil {
				return err
			}
			soloDur = append(soloDur, d)
		}
		if req.compare && len(corunDur) < sample/2 {
			d, err := r.trace.time("nicsim", "corun", func() error { return corun(req.scenario) })
			if err != nil {
				return err
			}
			corunDur = append(corunDur, d)
		}
	}
	soloMs, corunMs = ms(mean(soloDur)), ms(mean(corunDur))
	r.set("nicsim.solo_ms", soloMs)
	r.set("nicsim.corun_ms", corunMs)
	for _, req := range traced.reqs {
		if req.compare {
			compares++
		}
	}

	// Backend predictions from precomputed solo measurements: the
	// predictor's own cost, with no simulation behind it.
	tb := testbed.New(nicsim.BlueField2(), 1)
	solos := map[competitor]*nicsim.Measurement{}
	measure := func(nf string, p traffic.Profile) (*nicsim.Measurement, error) {
		k := competitor{nf, p}
		if m, ok := solos[k]; ok {
			return m, nil
		}
		m, err := tb.SoloNF(nf, p)
		if err != nil {
			return nil, err
		}
		solos[k] = &m
		return &m, nil
	}
	var scs []backend.Scenario
	var targets []string
	for _, req := range traced.reqs[:sample] {
		target, err := measure(req.nf, req.prof)
		if err != nil {
			return err
		}
		sc := backend.Scenario{Profile: req.prof, Solo: func() (float64, error) { return target.Throughput, nil }}
		for _, c := range req.comps {
			m, err := measure(c.nf, c.prof)
			if err != nil {
				return err
			}
			sc.Competitors = append(sc.Competitors, backend.Competitor{NF: c.nf, Profile: c.prof, Solo: m})
		}
		scs = append(scs, sc)
		targets = append(targets, req.nf)
	}
	for _, name := range []string{"yala", "slomo"} {
		b, _ := backend.Get(name)
		models := make([]backend.Model, len(targets))
		for i, nf := range targets {
			m, err := rep.svc.Registry().Model(name, nf)
			if err != nil {
				return err
			}
			models[i] = m
		}
		k := 0
		var perr error
		ns, _ := perOp(5000, func() {
			i := k % len(scs)
			k++
			if _, err := b.Predict(models[i], scs[i]); err != nil {
				perr = err
			}
		})
		if perr != nil {
			return perr
		}
		r.set("backend."+name+"_predict_us", ns/1000)
	}

	// An admit's isolated compute is the newcomer's solo simulation plus
	// yala predictions; a compare's is one solo simulation (SLOMO's
	// measured baseline) plus the co-run. The rest of the predict stage
	// is time spent queued.
	fc := float64(compares) / float64(len(traced.reqs))
	isolatedMs := (1-fc)*(soloMs+r.values["backend.yala_predict_us"]/1000) + fc*(soloMs+corunMs)
	r.set("serve.queue_wait_ms", r.values["serve.predict_us"]/1000-isolatedMs)
	return nil
}

// corun measures a scenario's ground truth the way the service does: a
// fresh testbed, every NF's footprint, one co-located run.
func corun(sc scenario) error {
	tb := testbed.New(nicsim.BlueField2(), 1)
	w, err := tb.Workload(sc.nf, sc.prof)
	if err != nil {
		return err
	}
	ws := []*nicsim.Workload{w}
	for _, c := range sc.comps {
		cw, err := tb.Workload(c.nf, c.prof)
		if err != nil {
			return err
		}
		ws = append(ws, cw)
	}
	_, err = tb.Run(ws...)
	return err
}

// checkCompare verifies a ground-truth compare: a positive measurement
// and error percentages that match the predictions and the measurement.
func checkCompare(c yalaclient.CompareResult) string {
	if !(c.MeasuredPPS > 0) {
		return fmt.Sprintf("measured_pps %g is not positive", c.MeasuredPPS)
	}
	for _, p := range []struct {
		name      string
		predicted float64
		errPct    float64
	}{{"yala", c.Yala.PredictedPPS, c.YalaErrPct}, {"slomo", c.SLOMO.PredictedPPS, c.SLOMOErrPct}} {
		want := 100 * math.Abs(p.predicted-c.MeasuredPPS) / c.MeasuredPPS
		if math.Abs(p.errPct-want) > 1e-6*math.Max(1, want) {
			return fmt.Sprintf("%s error %g%%, but predicted %g against measured %g is %g%%", p.name, p.errPct, p.predicted, c.MeasuredPPS, want)
		}
	}
	return ""
}

// absorbOpen folds open-loop samples into the run's counts and returns
// every latency (from due time), sorted.
func (r *run) absorbOpen(samples []openSample) []time.Duration {
	lat := make([]time.Duration, len(samples))
	for i, s := range samples {
		r.attempted++
		if s.err != nil {
			r.fail("%v", s.err)
		}
		lat[i] = s.latency()
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat
}

// openElapsed is how long an open-loop phase ran: its window, or longer
// when answers arrived after it closed.
func openElapsed(samples []openSample, window time.Duration) time.Duration {
	end := window
	for _, s := range samples {
		end = max(end, s.done)
	}
	return end
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
