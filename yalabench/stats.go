package main

import (
	"bytes"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/obs"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailLadder is the set of tail percentiles a run may report, highest
// first. It stops at p90: on a shared 2-core box a p99 moved by up to
// 75% between runs of the same workload, more than any regression
// bound can absorb. The p99 is still printed on the box line.
var tailLadder = []float64{0.90, 0.80, 0.75, 0.50}

// tailQuantile picks the highest percentile on the ladder that n
// samples support: at least minBeyond samples must lie strictly above
// the sample that percentile selects. ok is false when not even the
// median is supported.
func tailQuantile(n int) (p float64, ok bool) {
	for _, q := range tailLadder {
		if n-rank(n, q) >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// rank is the 1-based nearest-rank position of the q-quantile among n
// sorted samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile reads the nearest-rank q-quantile of sorted samples; 0 for
// none.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// sortedCopy merges per-caller samples into one sorted slice.
func sortedCopy(parts ...[]time.Duration) []time.Duration {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]time.Duration, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// window is one slice of a measured phase: its latencies, its wall
// time and how many units of work it completed (requests, or arrivals
// for the scheduler).
type window struct {
	lat  []time.Duration
	wall time.Duration
	done int
}

// latencyMetrics sets throughput_rps, p50_ms and tail_ms as medians
// over the phase's windows, so one stalled window (a collection pause,
// a noisy neighbour) cannot move them. The tail percentile is the
// highest the smallest window supports.
func (r *run) latencyMetrics(ws []window) {
	n := len(ws[0].lat)
	for _, w := range ws {
		n = min(n, len(w.lat))
	}
	q, ok := tailQuantile(n)
	if !ok {
		r.fail("%d latency samples support no tail percentile", n)
		return
	}
	var rps, p50, tail, p99 []float64
	for _, w := range ws {
		sorted := sortedCopy(w.lat)
		rps = append(rps, float64(w.done)/w.wall.Seconds())
		p50 = append(p50, ms(quantile(sorted, 0.5)))
		tail = append(tail, ms(quantile(sorted, q)))
		p99 = append(p99, ms(quantile(sorted, 0.99)))
	}
	r.set("throughput_rps", median(rps))
	r.set("p50_ms", median(p50))
	r.set("tail_ms", median(tail))
	if n-rank(n, 0.99) >= minBeyond {
		r.info["p99_ms"] = median(p99)
	}
	r.info["tail_percentile"] = q * 100
	r.info["windows"] = len(ws)
	r.info["min_window_samples"] = n
}

// median of a non-empty sample; the mean of the middle two when even.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 0 {
		return (s[m-1] + s[m]) / 2
	}
	return s[m]
}

// histPoint is one histogram series' running totals in one scrape.
type histPoint struct {
	Count uint64
	Sum   float64
}

// histDelta is what a histogram observed between two scrapes. A series
// that went backwards restarted in between (a server restarted); then
// every observation the later scrape holds happened after the restart,
// inside the window, and the later totals are the delta.
func histDelta(before, after histPoint) histPoint {
	if after.Count < before.Count || after.Sum < before.Sum {
		return after
	}
	return histPoint{Count: after.Count - before.Count, Sum: after.Sum - before.Sum}
}

// meanSeconds is the mean observation of a delta, 0 when empty.
func (h histPoint) meanSeconds() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// counterDelta is after-before for a monotonic counter, or after when
// the counter restarted in between.
func counterDelta(before, after float64) float64 {
	if after < before {
		return after
	}
	return after - before
}

// scrape parses one metric registry's exposition.
func scrape(write func(io.Writer) error) (*obs.Exposition, error) {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return nil, err
	}
	return obs.ParseExposition(&buf)
}

// hist reads one histogram series from a scrape (zero when absent).
func hist(e *obs.Exposition, family, labelSubstr string) histPoint {
	_, _, sum, count, ok := e.HistogramSeries(family, labelSubstr)
	if !ok {
		return histPoint{}
	}
	return histPoint{Count: count, Sum: sum}
}

// value reads one counter or gauge from a scrape (zero when absent).
func value(e *obs.Exposition, name, labelSubstr string) float64 {
	v, _ := e.Value(name, labelSubstr)
	return v
}

// sumValues adds a counter across every label set of its family.
func sumValues(e *obs.Exposition, name string) float64 {
	total := 0.0
	for _, s := range e.Samples {
		if s.Name == name {
			total += s.Value
		}
	}
	return total
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// traceOverhead sets trace.overhead_pct: the traced phase's median
// latency against the untraced phase's.
func (r *run) traceOverhead(untraced, traced []time.Duration) {
	base := quantile(untraced, 0.5)
	if base > 0 {
		r.set("trace.overhead_pct", 100*float64(quantile(traced, 0.5)-base)/float64(base))
	}
}

// serveStages sets the serve.* stage means from the stage histogram
// deltas between two scrapes of the replicas' metrics.
func (r *run) serveStages(before, after *obs.Exposition) {
	for _, st := range []string{"decode", "cache", "encode", "predict"} {
		label := `stage="` + st + `"`
		d := histDelta(hist(before, "yala_stage_seconds", label), hist(after, "yala_stage_seconds", label))
		r.set("serve."+st+"_us", d.meanSeconds()*1e6)
	}
}

// cacheRatio sets serve.cache_hit_ratio from the response-cache
// counters between two scrapes.
func (r *run) cacheRatio(before, after *obs.Exposition) {
	hits := counterDelta(sumValues(before, "yala_cache_hits_total"), sumValues(after, "yala_cache_hits_total"))
	misses := counterDelta(sumValues(before, "yala_cache_misses_total"), sumValues(after, "yala_cache_misses_total"))
	r.set("serve.cache_hit_ratio", ratio(hits, hits+misses))
}
