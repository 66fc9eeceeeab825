package main

import (
	"maps"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// rssSampler records the peak RSS of each window of the measured phase:
// at every tick it reads the kernel's peak mark (VmHWM) and resets it.
// It also notes the CPU ticks the hypervisor stole during the phase.
type rssSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
	steal cpuTicks
}

// startRSS begins the measured phase's memory accounting. Set-up's
// garbage goes back to the system first, so training's transient heap
// does not count.
func (r *run) startRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		r.fail("resetting the peak RSS mark: %v", err)
		return
	}
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{}), steal: readCPUTicks()}
	r.rss = s
	tick := time.NewTicker(r.seconds / closedWindows)
	go func() {
		defer close(s.done)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.peaks = append(s.peaks, peakRSSMiB())
				resetPeakRSS()
			}
		}
	}()
}

// stopRSS ends the measured phase: peak_rss_mb is the median of the
// windows' peaks, so one window's collection timing cannot move it. It
// returns the share of the machine's CPU time stolen during the phase,
// in percent.
func (r *run) stopRSS() float64 {
	s := r.rss
	if s == nil {
		return 0
	}
	close(s.stop)
	<-s.done
	r.rss = nil
	if len(s.peaks) == 0 {
		s.peaks = append(s.peaks, peakRSSMiB())
	}
	r.set("peak_rss_mb", median(s.peaks))
	end := readCPUTicks()
	total := end.total - s.steal.total
	if total == 0 {
		return 0
	}
	return 100 * float64(end.steal-s.steal.steal) / float64(total)
}

// maxStealPct is the share of the machine's CPU time the hypervisor may
// steal during a measured phase before the phase counts as disturbed.
// On the shared 2-core reference box, phases with 6-22% stolen read up
// to 40% slower than undisturbed ones.
const maxStealPct = 10

// measured runs a workload's measured phase with its memory and steal
// accounting. fn measures once, sets the phase's metrics and returns
// its latencies. A disturbed phase is measured once more, and the less
// disturbed of the two is reported; requests and failed checks of both
// count. The box line lists every attempt's steal.
func (r *run) measured(fn func(attempt int) ([]time.Duration, error)) ([]time.Duration, error) {
	type outcome struct {
		lat    []time.Duration
		steal  float64
		values map[string]float64
		info   map[string]any
	}
	var best *outcome
	var steals []float64
	for attempt := 0; attempt < 2; attempt++ {
		r.startRSS()
		lat, err := fn(attempt)
		steal := r.stopRSS()
		if err != nil {
			return nil, err
		}
		steals = append(steals, steal)
		if best == nil || steal < best.steal {
			best = &outcome{lat: lat, steal: steal, values: maps.Clone(r.values), info: maps.Clone(r.info)}
		}
		if steal <= maxStealPct {
			break
		}
	}
	r.values, r.info = best.values, best.info
	r.info["cpu_steal_pct"] = steals
	return best.lat, nil
}

// cpuTicks is the machine's CPU time from /proc/stat, in clock ticks:
// all of it, and the part stolen by the hypervisor.
type cpuTicks struct{ total, steal uint64 }

func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		// Guest time (fields 9 and 10) is already counted in user time.
		if i < 8 {
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// resetPeakRSS restarts the kernel's peak-RSS mark at the current RSS.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
