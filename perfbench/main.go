// Command perfbench is the repository's benchmark. It drives one
// workload through the join engine, the worker cluster or the join
// service from a single process, checks every result against a
// reference computed another way, and prints one JSON line with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
//
//	bash perfbench/run.sh --workload q2-uniform-200k --seed 1 --seconds 10 --trace 0
//
// Every layer is timed from outside, around its public entry points;
// the program's own Stats, span trees and /metrics counters are read
// only as returned values. METRICS.md lists the workloads, the metrics
// and which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// setupRounds is how many times a run brings its layers up; setup_s is
// the median.
const setupRounds = 3

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run; every workload reports
// all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_s", "s"},
	{"queries_per_s", "1/s"},
	{"cpu_s_per_query", "s"},
	{"peak_heap_mib", "MiB"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// reach reports 0.
var perLayer = []metricDef{
	{"dataset.parse_s", "s"},
	{"dataset.parse_mb_per_s", "MB/s"},
	{"spatial.execute_s", "s"},
	{"spatial.outside_jobs_frac", "fraction"},
	{"spatial.round_self_s", "s"},
	{"spatial.replication_factor", "ratio"},
	{"mapreduce.map_s", "s"},
	{"mapreduce.shuffle_s", "s"},
	{"mapreduce.reduce_s", "s"},
	{"mapreduce.job_self_s", "s"},
	{"mapreduce.shuffle_pairs", "count"},
	{"mapreduce.shuffle_mb", "MB"},
	{"mapreduce.max_median_skew", "ratio"},
	{"mapreduce.combine_keep_ratio", "ratio"},
	{"mapreduce.task_attempts", "count"},
	{"mapreduce.task_failures", "count"},
	{"dfs.mb_written", "MB"},
	{"dfs.mb_read", "MB"},
	{"dfs.checkpoint_mb_written", "MB"},
	{"cluster.run_s", "s"},
	{"cluster.shuffle_net_mb", "MB"},
	{"cluster.loopback_mb", "MB"},
	{"cluster.shuffle_share", "fraction"},
	{"cluster.attempts", "count"},
	{"server.submit_hit_s", "s"},
	{"server.submit_miss_s", "s"},
	{"server.submit_auto_s", "s"},
	{"server.queue_wait_s", "s"},
	{"server.exec_s", "s"},
	{"server.result_fetch_s", "s"},
	{"server.polls_per_query", "count"},
	{"server.cache_hit_ratio", "fraction"},
	{"server.rejects", "count"},
	{"server.query_p90_s", "s"},
	{"go.alloc_mib_per_query", "MiB"},
	{"go.gc_per_query", "count"},
	{"trace.overhead_frac", "fraction"},
}

// A workload is one traffic mix. Its constructor generates the inputs
// from the seed and computes the reference results; neither counts as
// set-up time.
type workload interface {
	// start brings the layers under test up and runs one untimed
	// warm-up query; its wall time is one setup_s sample.
	start() error
	// stop tears down what start brought up.
	stop()
	// callers is the number of concurrent closed-loop callers.
	callers() int
	// op runs caller c's next operation and records it in rec. A traced
	// operation also records the span-derived layer metrics.
	op(c int, traced bool, rec *recorder)
	// finish records workload-wide metrics after the timed run; an
	// error marks the run incorrect.
	finish(rec *recorder) error
}

var workloads = map[string]func(seed uint64, workdir string) (workload, error){
	"q2-uniform-200k":    newUniformQ2,
	"q4-zipf-20k":        newZipfQ4,
	"q2-cluster-2w-200k": newClusterQ2,
	"service-mix-20k":    newServiceMix,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// recorder collects one run's samples; callers share it.
type recorder struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
	latency   map[bool][]float64 // query seconds, keyed by traced
	windows   []window           // every query's start and end
	layers    map[string][]float64
	// unavailable names metrics that could not be measured cleanly and
	// are left out rather than reported polluted.
	unavailable []string
}

func newRecorder() *recorder {
	return &recorder{latency: map[bool][]float64{}, layers: map[string][]float64{}}
}

// query records one completed query that ran from start to end; err
// reports a wrong result.
func (r *recorder) query(start, end time.Time, traced bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.latency[traced] = append(r.latency[traced], end.Sub(start).Seconds())
	r.windows = append(r.windows, window{start, end})
	if err != nil {
		r.failed++
		r.errs = append(r.errs, err.Error())
	}
}

// fail records an operation that returned no result.
func (r *recorder) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failed++
	r.errs = append(r.errs, err.Error())
}

// write records an operation that is not a query, such as a relation
// re-registration.
func (r *recorder) write() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
}

// layer adds one sample of a per-layer metric; the run reports the
// median of its samples.
func (r *recorder) layer(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.layers[name] = append(r.layers[name], v)
}

// omit leaves a per-layer metric out of the result.
func (r *recorder) omit(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.unavailable = append(r.unavailable, name)
}

func (r *recorder) queries() int { return len(r.latency[false]) + len(r.latency[true]) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string
	setups   int
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run: %v", workloadNames()))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed run in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "0 reports the end-to-end metrics; 1 runs traced and reports the per-layer metrics")
	fs.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "perfbench-work"), "scratch directory for relation files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1
	o.setups = setupRounds
	res, err := measure(o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// measure runs one workload: set-up rounds, then the closed-loop timed
// run, then the checks and metrics.
func measure(o options, log io.Writer) (*result, error) {
	newW, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames())
	}
	if o.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	workdir := filepath.Join(o.workdir, strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(workdir)

	w, err := newW(o.seed, workdir)
	if err != nil {
		return nil, fmt.Errorf("%s: inputs: %w", o.workload, err)
	}
	var setups []float64
	for i := 0; i < max(o.setups, 1); i++ {
		if i > 0 {
			w.stop()
		}
		runtime.GC()
		t := time.Now()
		if err := w.start(); err != nil {
			w.stop()
			return nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer w.stop()

	rec := newRecorder()
	runtime.GC()
	cpu0 := cpuSeconds()
	alloc0, gc0 := runtimeCounters()
	heap := startHeapSampler()
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < w.callers(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i == 0 || time.Now().Before(deadline); i++ {
				w.op(c, o.trace && i%2 == 0, rec)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	heap.finish()
	cpu := cpuSeconds() - cpu0
	alloc1, gc1 := runtimeCounters()
	finishErr := w.finish(rec)

	n := rec.queries()
	res := &result{Attempted: rec.attempted, Failed: rec.failed, Metrics: map[string]metric{}}
	res.Correct = rec.failed == 0 && finishErr == nil && n > 0
	for _, e := range rec.errs {
		fmt.Fprintf(log, "perfbench: %s: %s\n", o.workload, e)
	}
	if finishErr != nil {
		fmt.Fprintf(log, "perfbench: %s: %v\n", o.workload, finishErr)
	}
	if n == 0 {
		fmt.Fprintf(log, "perfbench: %s: no query completed\n", o.workload)
		n = 1
	}
	untraced := rec.latency[false]
	fmt.Fprintf(log, "perfbench: %s seed=%d trace=%t: %d queries (%d traced) in %.2fs, %d operations, %d failed, setups %v\n",
		o.workload, o.seed, o.trace, rec.queries(), len(rec.latency[true]), elapsed, rec.attempted, rec.failed, setups)

	put := func(defs []metricDef, name string, v float64) {
		for _, d := range defs {
			if d.name == name {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					v = 0
				}
				res.Metrics[name] = metric{Value: v, Unit: d.unit}
				return
			}
		}
		panic("perfbench: undeclared metric " + name)
	}
	if !o.trace {
		put(endToEnd, "setup_s", median(setups))
		put(endToEnd, "query_p50_s", median(untraced))
		put(endToEnd, "queries_per_s", float64(rec.queries())/elapsed)
		put(endToEnd, "cpu_s_per_query", cpu/float64(n))
		put(endToEnd, "peak_heap_mib", median(heap.peaks(rec.windows))/(1<<20))
		return res, nil
	}
	for _, d := range perLayer {
		put(perLayer, d.name, 0)
	}
	for name, xs := range rec.layers {
		put(perLayer, name, median(xs))
	}
	put(perLayer, "go.alloc_mib_per_query", float64(alloc1-alloc0)/(1<<20)/float64(n))
	put(perLayer, "go.gc_per_query", float64(gc1-gc0)/float64(n))
	if t, u := median(rec.latency[true]), median(untraced); t > 0 && u > 0 {
		put(perLayer, "trace.overhead_frac", t/u-1)
	}
	for _, name := range rec.unavailable {
		delete(res.Metrics, name)
	}
	return res, nil
}
