// Command yalabench is the repository benchmark: it runs one named
// workload against the Yala serving and scheduling stack, in process,
// and prints one JSON result line.
//
//	bash yalabench/run.sh --workload warm-wire --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separate traced run,
// whose spans are written to .bench_build/ when the run ends. See
// README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// outDir holds everything a run writes: model directories, trace files.
// It lies inside the checkout the benchmark runs from.
const outDir = ".bench_build"

// workloads maps each workload name to its runner.
var workloads = map[string]func(*run) error{
	"warm-wire":     runWarmWire,
	"cold-traffic":  runColdTraffic,
	"gateway-mixed": runGatewayMixed,
	"fleet-512":     runFleet,
}

// endToEnd lists the end-to-end metrics every untraced run reports, in
// print order, with their units and better-direction.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"tail_ms", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer lists the per-layer metrics every traced run reports. A
// workload that bypasses a layer reports 0 for it: no work was done
// there.
var perLayer = []metricDef{
	{"wire.echo_floor_p50_us", "us", "lower"},
	{"wire.codec_ns", "ns", "lower"},
	{"wire.codec_allocs", "count", "lower"},
	{"wire.request_share", "ratio", "higher"},
	{"serve.decode_us", "us", "lower"},
	{"serve.cache_us", "us", "lower"},
	{"serve.encode_us", "us", "lower"},
	{"serve.hit_ns", "ns", "lower"},
	{"serve.hit_allocs", "count", "lower"},
	{"serve.predict_us", "us", "lower"},
	{"serve.queue_wait_ms", "ms", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.unattributed_us", "us", "lower"},
	{"nicsim.solo_ms", "ms", "lower"},
	{"nicsim.corun_ms", "ms", "lower"},
	{"backend.yala_predict_us", "us", "lower"},
	{"backend.slomo_predict_us", "us", "lower"},
	{"registry.train_yala_s", "s", "lower"},
	{"registry.train_slomo_s", "s", "lower"},
	{"registry.load_ms", "ms", "lower"},
	{"feedback.ingest_us", "us", "lower"},
	{"feedback.drift_trips", "count", "lower"},
	{"gateway.self_us", "us", "lower"},
	{"gateway.hop_us", "us", "lower"},
	{"gateway.edge_hit_ratio", "ratio", "higher"},
	{"gateway.coalesced", "count", "higher"},
	{"gateway.retries", "count", "lower"},
	{"gateway.batch_us", "us", "lower"},
	{"gateway.fanout_ms", "ms", "lower"},
	{"cluster.slots_scanned_per_decision", "count", "lower"},
	{"cluster.slots_scored_per_decision", "count", "lower"},
	{"cluster.model_lookups", "count", "lower"},
	{"cluster.enforce_s", "s", "lower"},
	{"cluster.decisions", "count", "lower"},
	{"cluster.admitted", "count", "higher"},
	{"cluster.sla_violations", "count", "lower"},
	{"accuracy.mape_yala_pct", "%", "lower"},
	{"accuracy.mape_slomo_pct", "%", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"bench.fail_frac", "ratio", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

type metricDef struct {
	name, unit, better string
}

// metricValue is one reported metric on the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run is one invocation's state: its arguments, the metrics the
// workload reports, and the output checks it has failed.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	dir      string // per-run working directory under outDir
	models   string // the empty model directory set-up starts from

	attempted int
	failed    int
	problems  []string

	values map[string]float64
	floors floors
	rss    *rssSampler
	trace  *recorder
	info   map[string]any
}

// set records a metric value.
func (r *run) set(name string, v float64) { r.values[name] = v }

// fail records one failed output check (it counts as a failed
// operation) with a description for standard error.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	workload := flag.String("workload", "", "workload name: warm-wire, cold-traffic, gateway-mixed or fleet-512")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := flag.Int("seconds", 15, "measured duration in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced (per-layer) variant")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "yalabench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "yalabench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "yalabench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "yalabench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	models := filepath.Join(dir, "models")
	if err := os.Mkdir(models, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "yalabench:", err)
		return 1
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		dir:      dir,
		models:   models,
		values:   map[string]float64{},
		info: map[string]any{
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
		},
	}
	if r.traced {
		r.trace = newRecorder(maxSpans)
	}
	// The floors are the box's, so they are measured before set-up and
	// stay out of every workload's numbers.
	if r.floors, err = measureFloors(); err != nil {
		fmt.Fprintf(os.Stderr, "yalabench: floors: %v\n", err)
		return 1
	}
	r.info["wire_echo_floor_p50_us"] = r.floors.wireP50us
	r.info["http_empty_floor_p50_us"] = r.floors.httpP50us
	r.info["http_empty_floor_rps"] = r.floors.httpRPS
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "yalabench: %s: %v\n", r.workload, err)
		return 1
	}
	if r.traced {
		r.set("wire.echo_floor_p50_us", r.floors.wireP50us)
		if r.attempted > 0 {
			r.set("bench.fail_frac", float64(r.failed)/float64(r.attempted))
		}
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", r.workload, r.seed))
		if err := r.trace.writeFile(path, r.info); err != nil {
			fmt.Fprintf(os.Stderr, "yalabench: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "yalabench: %d spans (%d dropped) written to %s\n", len(r.trace.spans), r.trace.dropped, path)
	}
	return r.report()
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report prints the human-readable table to standard error, the box
// line and the result line to standard output, and returns the exit
// code: non-zero when any output check failed.
func (r *run) report() int {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	fmt.Fprintf(os.Stderr, "yalabench %s seed=%d seconds=%v traced=%v\n", r.workload, r.seed, r.seconds, r.traced)
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !r.traced {
			fmt.Fprintf(os.Stderr, "yalabench: metric %s was not measured\n", d.name)
			res.Correct = false
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "yalabench: metric %s is not finite\n", d.name)
			res.Correct = false
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(os.Stderr, "  %-36s %14s %-6s (%s is better)\n", d.name, strconv.FormatFloat(v, 'g', 6, 64), d.unit, d.better)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "  check failed:", p)
	}
	fmt.Fprintf(os.Stderr, "  attempted %d, failed %d\n", r.attempted, r.failed)
	box, _ := json.Marshal(map[string]any{"box": r.info})
	fmt.Println(string(box))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "yalabench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
