// Command perfbench is the repository's end-to-end benchmark: it composes the
// cluster, serving and tracker layers itself through their public entry
// points, drives one of four seeded workloads for a fixed time, checks every
// output, and prints each metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; see README.md):
//
//	bash perfbench/run.sh --workload cluster-ingest --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// repResult is what one repetition of a workload measured.
type repResult struct {
	// vals are scalar metrics of this repetition; a run reports their
	// median over repetitions.
	vals map[string]float64
	// samples are per-operation distributions; a run pools them across
	// repetitions and reports percentiles with the sample count.
	samples map[string][]float64
	// attempted and failed count operations: the repetition itself plus
	// every query it issued.
	attempted, failed int64
	repFailed         bool
	// errs are wrong outputs (failed correctness checks); notes explain
	// failed operations.
	errs, notes []error
}

func newRepResult() *repResult {
	return &repResult{vals: map[string]float64{}, samples: map[string][]float64{}, attempted: 1}
}

// wrong records a failed correctness check: the run is not correct and the
// repetition counts as failed.
func (r *repResult) wrong(err error) {
	if err != nil {
		r.errs = append(r.errs, err)
		r.failRep(nil)
	}
}

// failRep counts the repetition as failed (once), for the reason err.
func (r *repResult) failRep(err error) {
	if !r.repFailed {
		r.repFailed = true
		r.failed++
	}
	r.note(err)
}

func (r *repResult) note(err error) {
	if err != nil {
		r.notes = append(r.notes, err)
	}
}

// workload is one benchmark workload. prepare pre-generates the inputs from
// the seed (outside every timed window); setupProbe times one set-up of the
// workload's roles on its own; rep runs one repetition, traced when tr is
// non-nil; layerCPU turns a traced repetition's CPU per pprof layer label
// into per-layer metrics.
type workload interface {
	prepare(seed uint64) error
	setupProbe() (time.Duration, error)
	rep(tr *tracer) *repResult
	layerCPU(r *repResult, cpuNs map[string]int64)
}

// setupProbes is how many extra set-ups a run times besides those of its
// repetitions: set-up takes milliseconds, so its median needs more samples
// than the repetitions give.
const setupProbes = 15

var workloads = map[string]func() workload{
	"cluster-ingest": newClusterIngest,
	"cluster-serve":  newClusterServe,
	"tracker-mixed":  newTrackerMixed,
	"relay-learn":    newRelayLearn,
}

// endToEnd and perLayer are the metrics of the final JSON line (BENCHMARK.json
// lists the same names): the ones every workload measures. Each workload
// prints its other metrics by name above the JSON line.
var endToEnd = []string{"setup_s", "ingest_eps", "updates_per_event", "peak_rss_mb"}

var perLayer = []string{"bn.sample_ns_per_event", "ingest.cpu_ns_per_event", "trace.ingest_eps_overhead_pct"}

// units names the unit of every metric the benchmark reports.
var units = map[string]string{
	"setup_s":            "s",
	"ingest_eps":         "events/s",
	"cpu_us_per_event":   "us",
	"frames_per_event":   "frames",
	"bytes_per_event":    "B",
	"updates_per_event":  "msgs",
	"mle_rel_err":        "ratio",
	"query_ms":           "ms",
	"query_fail_ratio":   "ratio",
	"freshness_ms":       "ms",
	"struct_edge_recall": "ratio",
	"peak_rss_mb":        "MB",

	"bn.sample_ns_per_event":               "ns",
	"ingest.cpu_ns_per_event":              "ns",
	"trace.ingest_eps_overhead_pct":        "%",
	"trace.query_p50_overhead_pct":         "%",
	"cluster.site.cpu_ns_per_event":        "ns",
	"cluster.site.net_cpu_ns_per_event":    "ns",
	"cluster.site.run_skew":                "ratio",
	"cluster.coordinator.cpu_ns_per_event": "ns",
	"cluster.coordinator.lag_frames":       "frames",
	"cluster.wire.bytes_per_frame":         "B",
	"cluster.snapshot.acquire_us":          "us",
	"cluster.snapshot.acquires_per_s":      "1/s",
	"serve.cpu_ns_per_query":               "ns",
	"serve.refreshes_per_s":                "1/s",
	"serve.shed":                           "count",
	"serve.deadline_exceeded":              "count",
	"core.ingest.ns_per_event":             "ns",
	"core.ingest.call_us":                  "us",
	"core.query.cpu_ns_per_query":          "ns",
	"core.estimated_model_us":              "us",
	"cluster.relay.cpu_ns_per_event":       "ns",
	"cluster.relay.fold_ratio":             "ratio",
	"cluster.structure.entries_per_event":  "entries",
	"cluster.structure.relearns":           "count",
	"cluster.structure.swaps":              "count",
	"loadgen.late_ms":                      "ms",
	"queries":                              "count",
	"events":                               "count",
	"freshness_unresolved":                 "frames",
	"bench.forwarder.cpu_ns_per_event":     "ns",
}

// metricOut is one metric of the final JSON line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: cluster-ingest, cluster-serve, tracker-mixed or relay-learn")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1 = traced run: alternate traced and untraced repetitions and report per-layer metrics")
	outDir := flag.String("out", ".bench_out", "directory for the traced run's spans")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool, outDir string) error {
	mk, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d, want >= 1", seconds)
	}
	// One process on a 2-CPU budget: the numbers measure the program, not
	// the scheduler.
	runtime.GOMAXPROCS(2)
	w := mk()
	if err := w.prepare(seed); err != nil {
		return fmt.Errorf("preparing %s: %w", name, err)
	}
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		d, err := w.setupProbe()
		if err != nil {
			return fmt.Errorf("set-up probe: %w", err)
		}
		setups = append(setups, d.Seconds())
	}

	// Repeat fixed-size repetitions until the time is up (at least minReps;
	// a traced run alternates untraced and traced ones, in equal numbers).
	minReps := 3
	if traced {
		minReps = 4
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	var plain, withTrace []*repResult
	for i := 0; ; i++ {
		if i >= minReps && !time.Now().Before(deadline) && (!traced || i%2 == 0) {
			break
		}
		// Start every repetition from a collected heap, so one repetition's
		// garbage does not land in the next one's set-up.
		runtime.GC()
		if !traced || i%2 == 0 {
			plain = append(plain, w.rep(nil))
			continue
		}
		prof, err := startCPUProfile()
		if err != nil {
			return err
		}
		r := w.rep(tr)
		cpu, err := prof.stop()
		r.note(err)
		w.layerCPU(r, cpu)
		withTrace = append(withTrace, r)
	}
	runtime.GC()

	rep := aggregate(plain)
	rep.vals["peak_rss_mb"] = peakRSSMB()
	for _, r := range plain {
		if v, ok := r.vals["setup_s"]; ok {
			setups = append(setups, v)
		}
	}
	rep.vals["setup_s"] = median(setups)
	all := append(slices.Clone(plain), withTrace...)
	res := resultOut{Metrics: map[string]metricOut{}}
	var errs, notes []string
	for _, r := range all {
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, err := range r.errs {
			errs = append(errs, err.Error())
		}
		for _, err := range r.notes {
			notes = append(notes, err.Error())
		}
	}
	res.Correct = len(errs) == 0

	names := endToEnd
	report := rep
	if traced {
		report = aggregate(withTrace)
		overhead(report, rep)
		names = perLayer
	}

	fmt.Printf("workload %s seed %d: %d untraced and %d traced repetitions in %d s\n",
		name, seed, len(plain), len(withTrace), seconds)
	printReport("end-to-end (untraced repetitions)", rep)
	if traced {
		printReport("per-layer (traced repetitions)", report)
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := tr.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans: %s (%d dropped)\n", path, tr.dropped.Load())
	}
	for _, e := range errs {
		fmt.Println("WRONG:", e)
	}
	for _, e := range notes {
		fmt.Println("FAILED:", e)
	}

	for _, n := range names {
		v, ok := report.vals[n]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload %s did not measure %s", name, n)
		}
		res.Metrics[n] = metricOut{Value: v, Unit: unitOf(n)}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// aggregated is a run's report: scalar metrics (medians over repetitions)
// and pooled distributions.
type aggregated struct {
	vals    map[string]float64
	samples map[string][]float64
	reps    int
}

func aggregate(reps []*repResult) aggregated {
	a := aggregated{vals: map[string]float64{}, samples: map[string][]float64{}, reps: len(reps)}
	per := map[string][]float64{}
	for _, r := range reps {
		for k, v := range r.vals {
			per[k] = append(per[k], v)
		}
		for k, s := range r.samples {
			a.samples[k] = append(a.samples[k], s...)
		}
	}
	for k, vs := range per {
		a.vals[k] = median(vs)
	}
	// Distributions also surface as p50/p99 scalars (query_p50_ms, ...).
	for k, s := range a.samples {
		base, unit := splitUnit(k)
		a.vals[base+"_p50"+unit] = quantile(s, 0.5)
		a.vals[base+"_p99"+unit] = quantile(s, 0.99)
	}
	return a
}

// overhead adds the tracing overhead: how much slower the traced repetitions
// ingested, and how much later they answered, than the untraced ones.
func overhead(traced, plain aggregated) {
	if p, t := plain.vals["ingest_eps"], traced.vals["ingest_eps"]; p > 0 {
		traced.vals["trace.ingest_eps_overhead_pct"] = 100 * (p - t) / p
	}
	if p, t := plain.vals["query_p50_ms"], traced.vals["query_p50_ms"]; p > 0 {
		traced.vals["trace.query_p50_overhead_pct"] = 100 * (t - p) / p
	}
}

// splitUnit splits a distribution name such as "query_ms" into its base and
// unit suffix ("query", "_ms").
func splitUnit(name string) (string, string) {
	if i := strings.LastIndexByte(name, '_'); i > 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// unitOf resolves a metric's unit, including the p50/p99 views of a
// distribution.
func unitOf(name string) string {
	if u, ok := units[name]; ok {
		return u
	}
	for _, p := range []string{"_p50", "_p99"} {
		if i := strings.Index(name, p); i > 0 {
			if u, ok := units[name[:i]+name[i+len(p):]]; ok {
				return u
			}
		}
	}
	return ""
}

// printReport prints every metric by name with its unit; distributions with
// their median, p99 and sample count.
func printReport(title string, a aggregated) {
	fmt.Printf("%s, %d repetitions:\n", title, a.reps)
	dist := map[string]bool{}
	for k := range a.samples {
		base, unit := splitUnit(k)
		dist[base+"_p50"+unit], dist[base+"_p99"+unit] = true, true
	}
	keys := make([]string, 0, len(a.vals))
	for k := range a.vals {
		if unitOf(k) != "" && !dist[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-40s %14.6g %s\n", k, a.vals[k], unitOf(k))
	}
	sk := make([]string, 0, len(a.samples))
	for k := range a.samples {
		sk = append(sk, k)
	}
	sort.Strings(sk)
	for _, k := range sk {
		s := a.samples[k]
		fmt.Printf("  %-40s p50 %.6g p99 %.6g %s over %d samples\n", k, quantile(s, 0.5), quantile(s, 0.99), unitOf(k), len(s))
	}
}
