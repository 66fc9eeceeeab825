package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/nicsim"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/serve"
)

// fleetScenario is fleet-512's churn stream: 512 BlueField-2 NICs, 2048
// arrivals over the NF pool with the standard drift probability, and the
// default 16-NIC lifetime scaled by 512/16 so the fleet fills as far.
func fleetScenario(seed uint64) cluster.Scenario {
	return cluster.Scenario{
		NICs:         512,
		Arrivals:     2048,
		Seed:         seed,
		NFs:          nfPool,
		DriftProb:    cluster.DefaultDriftProb,
		MeanLifetime: 40 * 512 / 16,
	}.WithDefaults()
}

// timedScheduler wraps a policy and times each Choose call: arrivals
// and drift migrations alike.
type timedScheduler struct {
	cluster.Scheduler
	rc    *recorder
	durs  []time.Duration
	total time.Duration
}

func (s *timedScheduler) Choose(f *cluster.Fleet, a placement.Arrival) (int, error) {
	t0 := time.Now()
	idx, err := s.Scheduler.Choose(f, a)
	t1 := time.Now()
	s.rc.add("cluster", "choose", "", t0, t1)
	d := t1.Sub(t0)
	s.durs = append(s.durs, d)
	s.total += d
	return idx, err
}

// countingModels wraps the scheduler's model source and counts lookups.
type countingModels struct {
	cluster.ModelSource
	lookups atomic.Int64
}

func (m *countingModels) ModelOn(backendName, class string, nic nicsim.Config, name string) (backend.Model, error) {
	m.lookups.Add(1)
	return m.ModelSource.ModelOn(backendName, class, nic, name)
}

// fleetPass is one replay of the stream.
type fleetPass struct {
	res       cluster.PolicyResult
	decisions []time.Duration
	choose    time.Duration
	wall      time.Duration
}

// runFleet is the fleet-512 workload: the yala policy replays the churn
// stream through Env.RunPolicy, pass after pass, on an environment
// warmed by one pass in set-up.
func runFleet(r *run) error {
	ctx := context.Background()
	start := time.Now()
	reg := serve.NewRegistry(serve.RegistryConfig{Dir: r.models})
	if err := r.trainModels(reg, "yala"); err != nil {
		return err
	}
	models := &countingModels{ModelSource: reg}
	env := cluster.NewEnv(nicsim.BlueField2(), 1, models)
	sc := fleetScenario(r.seed)
	if err := env.Prewarm(ctx, sc, []string{"yala"}); err != nil {
		return err
	}
	pass := func(rc *recorder) (fleetPass, error) {
		policy, err := cluster.NewScheduler("yala", env, r.seed)
		if err != nil {
			return fleetPass{}, err
		}
		ts := &timedScheduler{Scheduler: policy, rc: rc, durs: make([]time.Duration, 0, 2*sc.Arrivals)}
		t0 := time.Now()
		res, err := env.RunPolicy(ctx, sc, ts)
		t1 := time.Now()
		rc.add("cluster", "run_policy", "", t0, t1)
		return fleetPass{res: res, decisions: ts.durs, choose: ts.total, wall: t1.Sub(t0)}, err
	}
	warm, err := pass(nil)
	if err != nil {
		return err
	}
	r.info["setup_model_lookups"] = models.lookups.Load()
	r.set("setup_s", time.Since(start).Seconds())

	// Every pass must reproduce the warm-up pass exactly: the replay is
	// deterministic, only its timing varies.
	passes := func(rc *recorder) ([]fleetPass, error) {
		var out []fleetPass
		t0 := time.Now()
		for len(out) == 0 || time.Since(t0) < r.seconds {
			p, err := pass(rc)
			if err != nil {
				return nil, err
			}
			r.attempted += p.res.Arrivals
			if p.res.Admitted != warm.res.Admitted || p.res.Violations != warm.res.Violations || len(p.decisions) != len(warm.decisions) {
				r.fail("pass %d: admitted %d, violations %d, decisions %d; warm-up pass had %d, %d, %d",
					len(out), p.res.Admitted, p.res.Violations, len(p.decisions), warm.res.Admitted, warm.res.Violations, len(warm.decisions))
			}
			out = append(out, p)
		}
		return out, nil
	}
	lat, err := r.measured(func(int) ([]time.Duration, error) {
		timed, err := passes(nil)
		if err != nil {
			return nil, err
		}
		// Each pass is one window: arrivals per second of its RunPolicy
		// wall time, and its decision times.
		ws := make([]window, len(timed))
		for i, p := range timed {
			ws[i] = window{lat: p.decisions, wall: p.wall, done: p.res.Arrivals}
		}
		r.latencyMetrics(ws)
		r.info["passes"] = len(timed)
		return fleetDecisions(timed), nil
	})
	if err != nil {
		return err
	}
	r.info["admitted"] = warm.res.Admitted
	r.info["sla_violations"] = warm.res.Violations
	if !r.traced {
		return nil
	}

	reg2 := obs.NewRegistry()
	env.SetObs(reg2)
	lookups := models.lookups.Load()
	traced, err := passes(r.trace)
	if err != nil {
		return err
	}
	env.SetObs(nil)
	tlat := fleetDecisions(traced)
	r.traceOverhead(lat, tlat)
	exp, err := scrape(reg2.WriteProm)
	if err != nil {
		return err
	}
	n := float64(len(traced))
	decisions := float64(len(tlat)) / n
	r.set("cluster.decisions", decisions)
	r.set("cluster.slots_scanned_per_decision", sumValues(exp, "cluster_slots_scanned_total")/n/decisions)
	r.set("cluster.slots_scored_per_decision", sumValues(exp, "cluster_slots_scored_total")/n/decisions)
	r.set("cluster.model_lookups", float64(models.lookups.Load()-lookups)/n)
	var enforce time.Duration
	for _, p := range traced {
		enforce += p.wall - p.choose
	}
	r.set("cluster.enforce_s", enforce.Seconds()/n)
	r.set("cluster.admitted", float64(warm.res.Admitted))
	r.set("cluster.sla_violations", float64(warm.res.Violations))
	if len(traced) == 0 {
		return fmt.Errorf("no traced pass")
	}
	return nil
}

// fleetDecisions merges the passes' decision times, sorted.
func fleetDecisions(ps []fleetPass) []time.Duration {
	parts := make([][]time.Duration, len(ps))
	for i, p := range ps {
		parts[i] = p.decisions
	}
	return sortedCopy(parts...)
}
