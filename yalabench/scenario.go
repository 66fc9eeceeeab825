package main

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/wire"
	"repro/pkg/yalaclient"
)

// competitor is one co-resident NF of a scenario.
type competitor struct {
	nf   string
	prof traffic.Profile
}

// scenario is one predict question: a target NF at a profile beside
// zero or more competitors.
type scenario struct {
	nf    string
	prof  traffic.Profile
	comps []competitor
}

// profilePool is the default profile plus n-1 seeded random draws.
func profilePool(rng *sim.RNG, n int) []traffic.Profile {
	pool := []traffic.Profile{traffic.Default}
	for len(pool) < n {
		pool = append(pool, traffic.Random(rng))
	}
	return pool
}

func clientProfile(p traffic.Profile) yalaclient.ProfileSpec {
	return yalaclient.ProfileSpec{Flows: p.Flows, PktSize: p.PktSize, MTBR: yalaclient.F64(p.MTBR)}
}

func (s scenario) clientComps() []yalaclient.Competitor {
	if len(s.comps) == 0 {
		return nil
	}
	out := make([]yalaclient.Competitor, len(s.comps))
	for i, c := range s.comps {
		out[i] = yalaclient.Competitor{Name: c.nf, Profile: clientProfile(c.prof)}
	}
	return out
}

func (s scenario) params() yalaclient.PredictParams {
	return yalaclient.PredictParams{Profile: clientProfile(s.prof), Competitors: s.clientComps()}
}

func (s scenario) batchItem() yalaclient.BatchItem {
	return yalaclient.BatchItem{Model: yalaclient.ModelID{NF: s.nf}, Profile: clientProfile(s.prof), Competitors: s.clientComps()}
}

func (s scenario) serveRequest() serve.PredictRequest {
	req := serve.PredictRequest{NF: s.nf, Profile: serve.SpecOf(s.prof)}
	for _, c := range s.comps {
		req.Competitors = append(req.Competitors, serve.CompetitorSpec{Name: c.nf, Profile: serve.SpecOf(c.prof)})
	}
	return req
}

func wireProfile(p traffic.Profile) wire.Profile {
	return wire.Profile{Flows: p.Flows, PktSize: p.PktSize, MTBR: &p.MTBR}
}

func (s scenario) wireRequest() wire.PredictRequest {
	req := wire.PredictRequest{NF: s.nf, Profile: wireProfile(s.prof)}
	for _, c := range s.comps {
		req.Competitors = append(req.Competitors, wire.Competitor{Name: c.nf, Profile: wireProfile(c.prof)})
	}
	return req
}

// wireResponse is the wire form of a service answer, per-resource
// entries in a fixed order.
func wireResponse(r serve.PredictResponse) wire.PredictResponse {
	out := wire.PredictResponse{
		NF: r.NF, HW: r.HW, Backend: string(r.Backend),
		Profile: wireProfile(r.Profile.Profile()),
		SoloPPS: r.SoloPPS, PredictedPPS: r.PredictedPPS, Bottleneck: r.Bottleneck,
	}
	for _, k := range slices.Sorted(maps.Keys(r.PerResourcePPS)) {
		out.PerResource = append(out.PerResource, wire.ResourcePPS{Resource: k, PPS: r.PerResourcePPS[k]})
	}
	return out
}

// sameAnswer reports how a client answer differs from the in-process
// reference, "" when it does not.
func sameAnswer(got yalaclient.PredictResult, want serve.PredictResponse) string {
	wp := want.Profile.Profile()
	switch {
	case got.NF != want.NF || got.Backend != string(want.Backend) || got.HW != want.HW:
		return fmt.Sprintf("identity %s/%s/%s, want %s/%s/%s", got.NF, got.Backend, got.HW, want.NF, want.Backend, want.HW)
	case got.PredictedPPS != want.PredictedPPS || got.SoloPPS != want.SoloPPS:
		return fmt.Sprintf("%s: predicted %g solo %g, want %g and %g", want.NF, got.PredictedPPS, got.SoloPPS, want.PredictedPPS, want.SoloPPS)
	case got.Bottleneck != want.Bottleneck:
		return fmt.Sprintf("%s: bottleneck %q, want %q", want.NF, got.Bottleneck, want.Bottleneck)
	case got.Profile.Flows != wp.Flows || got.Profile.PktSize != wp.PktSize || got.Profile.MTBR == nil || *got.Profile.MTBR != wp.MTBR:
		return fmt.Sprintf("%s: profile differs", want.NF)
	case !maps.Equal(got.PerResourcePPS, want.PerResourcePPS):
		return fmt.Sprintf("%s: per-resource breakdown differs", want.NF)
	}
	return ""
}

// sink is one closed-loop caller's record: each request's latency and
// completion time since the loop started.
type sink struct {
	t0        time.Time
	lat       []time.Duration
	ends      []time.Duration
	attempted int
	problems  []string
}

// record adds one completed request; a non-empty problem marks it
// failed.
func (s *sink) record(d time.Duration, problem string) {
	s.attempted++
	s.lat = append(s.lat, d)
	s.ends = append(s.ends, time.Since(s.t0))
	if problem != "" {
		s.problems = append(s.problems, problem)
	}
}

// closedLoop runs op back to back on each caller until window ends.
// It returns the callers' records and the measured wall time.
func closedLoop(seed uint64, window time.Duration, op func(c int, rng *sim.RNG, s *sink)) ([]*sink, time.Duration) {
	return closedLoopUntil(seed, func(_ int, elapsed time.Duration) bool { return elapsed < window }, op)
}

// closedWindows is how many windows a closed loop's metrics are the
// median over.
const closedWindows = 5

// closedLoopN runs op exactly n times on each caller.
func closedLoopN(seed uint64, n int, op func(c int, rng *sim.RNG, s *sink)) ([]*sink, time.Duration) {
	count := make([]int, callers)
	return closedLoopUntil(seed, func(c int, _ time.Duration) bool {
		count[c]++
		return count[c] <= n
	}, op)
}

// closedLoopUntil runs op back to back on each caller while more says
// so; each caller draws from its own RNG split off the seed.
func closedLoopUntil(seed uint64, more func(c int, elapsed time.Duration) bool, op func(c int, rng *sim.RNG, s *sink)) ([]*sink, time.Duration) {
	sinks := make([]*sink, callers)
	root := sim.NewRNG(seed ^ 0x636c6f736564) // "closed"
	rngs := make([]*sim.RNG, callers)
	for c := range sinks {
		sinks[c] = &sink{lat: make([]time.Duration, 0, 1<<16), ends: make([]time.Duration, 0, 1<<16)}
		rngs[c] = root.Split()
	}
	runtime.GC()
	start := time.Now()
	for _, s := range sinks {
		s.t0 = start
	}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for more(c, time.Since(start)) {
				op(c, rngs[c], sinks[c])
			}
		}(c)
	}
	wg.Wait()
	return sinks, time.Since(start)
}

// absorb folds the callers' records into the run's counts and returns
// every latency, sorted.
func (r *run) absorb(sinks []*sink) []time.Duration {
	parts := make([][]time.Duration, len(sinks))
	for i, s := range sinks {
		parts[i] = s.lat
		r.attempted += s.attempted
		for _, p := range s.problems {
			r.fail("%s", p)
		}
	}
	return sortedCopy(parts...)
}

// windows splits a closed loop's requests by completion time into k
// equal windows of its measured wall time.
func windows(sinks []*sink, elapsed time.Duration, k int) []window {
	ws := make([]window, k)
	for i := range ws {
		ws[i].wall = elapsed / time.Duration(k)
	}
	for _, s := range sinks {
		for j, end := range s.ends {
			i := min(int(end*time.Duration(k)/elapsed), k-1)
			ws[i].lat = append(ws[i].lat, s.lat[j])
			ws[i].done++
		}
	}
	return ws
}

// perOp measures fn's mean wall time and heap allocations over n calls.
func perOp(n int, fn func()) (ns, allocs float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}
