package main

import (
	"errors"
	"slices"
	"testing"
	"time"
)

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n      int
		want   float64
		wantOK bool
	}{
		{n: 100000, want: 0.90, wantOK: true},
		{n: 100, want: 0.90, wantOK: true},
		{n: 99, want: 0.80, wantOK: true},
		{n: 60, want: 0.80, wantOK: true},
		{n: 40, want: 0.75, wantOK: true},
		{n: 20, want: 0.50, wantOK: true},
		{n: 19, wantOK: false},
		{n: 0, wantOK: false},
	} {
		got, ok := tailQuantile(tc.n)
		if ok != tc.wantOK || got != tc.want {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.wantOK)
		}
		if ok && tc.n-rank(tc.n, got) < minBeyond {
			t.Errorf("tailQuantile(%d) = %v leaves %d samples beyond it", tc.n, got, tc.n-rank(tc.n, got))
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	sorted := make([]time.Duration, 100)
	for i := range sorted {
		sorted[i] = time.Duration(i+1) * time.Millisecond
	}
	for q, want := range map[float64]time.Duration{0.5: 50 * time.Millisecond, 0.9: 90 * time.Millisecond, 0.99: 99 * time.Millisecond, 1: 100 * time.Millisecond, 0: time.Millisecond} {
		if got := quantile(sorted, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}

func TestHistDelta(t *testing.T) {
	before := histPoint{Count: 10, Sum: 2.0}
	if got := histDelta(before, histPoint{Count: 14, Sum: 2.4}); got.Count != 4 || got.meanSeconds() < 0.0999 || got.meanSeconds() > 0.1001 {
		t.Errorf("delta = %+v (mean %v), want 4 observations of 0.1s", got, got.meanSeconds())
	}
	// The series restarted between the scrapes: everything the later
	// scrape holds happened inside the window.
	if got := histDelta(before, histPoint{Count: 3, Sum: 0.9}); got != (histPoint{Count: 3, Sum: 0.9}) {
		t.Errorf("delta across a reset = %+v, want the later totals", got)
	}
	if got := histDelta(before, before); got.Count != 0 || got.meanSeconds() != 0 {
		t.Errorf("empty delta = %+v (mean %v), want zero", got, got.meanSeconds())
	}
	if got := counterDelta(100, 130); got != 30 {
		t.Errorf("counterDelta(100, 130) = %v, want 30", got)
	}
	if got := counterDelta(100, 7); got != 7 {
		t.Errorf("counterDelta across a reset = %v, want 7", got)
	}
}

func TestSelfTimesByRequestID(t *testing.T) {
	ms := time.Millisecond
	parents := []span{
		{Layer: "gateway", ID: "a", Start: 0, End: 100 * ms},
		{Layer: "gateway", ID: "b", Start: 200 * ms, End: 230 * ms},
		{Layer: "gateway", Start: 0, End: 50 * ms}, // no ID: not correlatable
	}
	children := []span{
		{Layer: "replica", ID: "a", Start: 10 * ms, End: 30 * ms},
		{Layer: "replica", ID: "a", Start: 20 * ms, End: 50 * ms},  // overlaps the first
		{Layer: "replica", ID: "a", Start: 80 * ms, End: 120 * ms}, // clipped at 100
		{Layer: "replica", ID: "c", Start: 200 * ms, End: 230 * ms},
	}
	got := selfTimes(parents, children)
	want := []time.Duration{40 * ms, 30 * ms}
	if !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// fakeClock advances only when told to; one caller keeps it race-free.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }
func (c *fakeClock) sleepUntil(t time.Duration) {
	if t > c.t {
		c.t = t
	}
}

func TestOpenLoopDueTimeAndLateness(t *testing.T) {
	ms := time.Millisecond
	clk := &fakeClock{}
	offsets := []time.Duration{0, 10 * ms, 20 * ms, 100 * ms}
	boom := errors.New("boom")
	samples := runOpenLoop(clk, offsets, 1, func(i int) error {
		clk.t += 25 * ms
		if i == 3 {
			return boom
		}
		return nil
	})
	want := []struct{ latency, lateness time.Duration }{
		{25 * ms, 0},
		{40 * ms, 15 * ms}, // sent at 25 behind request 0
		{55 * ms, 30 * ms}, // the stall carries over
		{25 * ms, 0},       // the backlog drained before 100
	}
	for i, w := range want {
		s := samples[i]
		if s.due != offsets[i] || s.latency() != w.latency || s.lateness() != w.lateness {
			t.Errorf("request %d: due %v latency %v lateness %v; want due %v latency %v lateness %v",
				i, s.due, s.latency(), s.lateness(), offsets[i], w.latency, w.lateness)
		}
	}
	if !errors.Is(samples[3].err, boom) {
		t.Errorf("request 3 error = %v, want %v", samples[3].err, boom)
	}
}

func TestEvenOffsets(t *testing.T) {
	got := evenOffsets(4, time.Second)
	want := []time.Duration{0, 250 * time.Millisecond, 500 * time.Millisecond, 750 * time.Millisecond}
	if !slices.Equal(got, want) {
		t.Errorf("evenOffsets(4, 1s) = %v, want %v", got, want)
	}
}
