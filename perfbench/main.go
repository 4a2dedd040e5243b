// Command perfbench is the repository's benchmark: it runs one named
// workload from a seed, checks every output, and prints the workload's
// metrics, ending with one JSON line:
//
//	perfbench --workload pipeline-suite --seed 7 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics, measured with spans recorded around
// the calls into each layer, and writes the spans to
// .bench_build/trace-<workload>.json. The workloads and the
// metric-to-layer map are described in README.md next to this file.
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
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string // where a traced run writes its spans
}

// workloads maps each workload name to the function that runs it and
// fills the report (README.md gives the reason for each).
var workloads = map[string]func(cfg config, rep *report) error{
	"pipeline-suite": runPipelineSuite,
	"pipeline-small": runPipelineSmall,
	"memo-local":     runMemoLocal,
	"tier-mixed":     runTierMixed,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&cfg.seed, "seed", 0, "input seed; seed 0 reproduces the suite's training inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured wall time per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports the per-layer metrics from a traced run")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.traceOut = filepath.Join(".bench_build", "trace-"+cfg.workload+".json")
	run, ok := workloads[cfg.workload]
	if !ok || (traceFlag != 0 && traceFlag != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}

	rep := newReport(cfg.trace)
	if err := run(cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	rep.add("peak_rss_mb", peakRSSMiB(), "MiB", 1)
	if err := rep.print(os.Stdout, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if rep.failed > 0 {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ---------------------------------------------------------------------------
// Metrics

// metricSpec is a metric the benchmark publishes. The lists below are
// the ones BENCHMARK.json declares (perfbench_test.go keeps them equal).
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"calls_per_s", "1/s"},
	{"call_p50_us", "us"},
	{"speedup_geomean", "ratio"},
	{"peak_rss_mb", "MiB"},
}

// suitePrograms are the rows of pipeline-suite (bench.Core order).
var suitePrograms = []string{"G721_encode", "G721_decode", "MPEG2_encode", "MPEG2_decode", "RASTA", "UNEPIC", "GNUGO"}

var perLayer = func() []metricSpec {
	specs := []metricSpec{
		{"minic.frontend_ms", "ms"},
		{"specialize.ms", "ms"},
		{"opt.ms", "ms"},
		{"pointer.ms", "ms"},
		{"callgraph.ms", "ms"},
		{"dataflow.ms", "ms"},
		{"segment.ms", "ms"},
		{"statreuse.ms", "ms"},
		{"transform.ms", "ms"},
		{"interp.base_ms", "ms"},
		{"interp.reuse_ms", "ms"},
		{"interp.ops", "count"},
		{"interp.mops_per_s", "Mop/s"},
		{"profile.collect_ms", "ms"},
		{"reusetab.table_probes", "count"},
		{"reusetab.table_hit_ratio", "ratio"},
	}
	for _, p := range suitePrograms {
		specs = append(specs, metricSpec{"run_ms." + p, "ms"}, metricSpec{"speedup." + p, "ratio"})
	}
	return append(specs,
		metricSpec{"call_p99_us", "us"},
		metricSpec{"memoized.call_ns", "ns"},
		metricSpec{"memoized.hit_ratio", "ratio"},
		metricSpec{"memotable.lookup_ns", "ns"},
		metricSpec{"memotable.store_ns", "ns"},
		metricSpec{"memotable.hit_ratio", "ratio"},
		metricSpec{"memotable.evictions", "count"},
		metricSpec{"depmemo.hit_ns", "ns"},
		metricSpec{"depmemo.miss_ns", "ns"},
		metricSpec{"depmemo.hit_ratio", "ratio"},
		metricSpec{"depmemo.evictions", "count"},
		metricSpec{"compute.ns", "ns"},
		metricSpec{"tiered.l1_hit_ratio", "ratio"},
		metricSpec{"tiered.l2_hit_ratio", "ratio"},
		metricSpec{"tiered.compute_ratio", "ratio"},
		metricSpec{"tiered.bypass_ratio", "ratio"},
		metricSpec{"tiered.error_ratio", "ratio"},
		metricSpec{"client.get_p50_us", "us"},
		metricSpec{"client.get_p99_us", "us"},
		metricSpec{"client.put_p50_us", "us"},
		metricSpec{"wire.encode_ns", "ns"},
		metricSpec{"wire.decode_ns", "ns"},
		metricSpec{"reused.hit_ratio", "ratio"},
		metricSpec{"reused.resident", "count"},
		metricSpec{"reused.c_us", "us"},
		metricSpec{"reused.o_us", "us"},
		metricSpec{"reusetab.sharded_probe_ns", "ns"},
		metricSpec{"reusetab.sharded_record_ns", "ns"},
		metricSpec{"go.alloc_bytes_per_op", "B/op"},
		metricSpec{"go.gc_cycles", "count"},
		metricSpec{"trace.coverage", "ratio"},
		metricSpec{"trace.overhead", "ratio"},
	)
}()

type metric struct {
	value   float64
	unit    string
	samples int
}

// report accumulates one run's metrics and its operation accounting.
type report struct {
	traced    bool
	metrics   map[string]metric
	attempted int64
	failed    int64
	failures  []string
}

func newReport(traced bool) *report {
	return &report{traced: traced, metrics: map[string]metric{}}
}

// add records a metric measured over samples samples. Metrics of the
// other mode (end-to-end in a traced run, per-layer in an untraced one)
// are dropped at print time.
func (r *report) add(name string, v float64, unit string, samples int) {
	r.metrics[name] = metric{v, unit, samples}
}

// fail records one failed operation; only the first few are kept for
// the log.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// print writes one human-readable line per metric (value, unit, sample
// count) and then the JSON result line. A metric of the mode's list that
// the workload does not exercise is reported as 0 with no samples.
func (r *report) print(f *os.File, cfg config) error {
	specs := endToEnd
	if r.traced {
		specs = perLayer
	}
	out := map[string]any{}
	fmt.Fprintf(f, "# workload=%s seed=%d seconds=%g trace=%v gomaxprocs=%d %s\n",
		cfg.workload, cfg.seed, cfg.seconds, r.traced, runtime.GOMAXPROCS(0), runtime.Version())
	for _, s := range specs {
		m, ok := r.metrics[s.name]
		if ok && m.unit != s.unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", s.name, m.unit, s.unit)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", s.name, m.value)
		}
		fmt.Fprintf(f, "%-28s %16.6g %-6s n=%d\n", s.name, m.value, s.unit, m.samples)
		out[s.name] = map[string]any{"value": m.value, "unit": s.unit}
	}
	for _, msg := range r.failures {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s\n", msg)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "%s\n", line)
	return nil
}

// ---------------------------------------------------------------------------
// Set-up and measurement helpers

// A run builds its workload state at least minSetupRounds times and
// until minSetupTime has been spent building; setup_s is the median
// round, and the last state is the one measured.
const (
	minSetupRounds = 5
	minSetupTime   = 250 * time.Millisecond
)

// timedSetup builds the workload state in rounds, closing all but the
// last, and records setup_s. Every round starts from a collected heap,
// so the garbage of earlier rounds neither slows a round nor raises the
// peak resident set.
func timedSetup[S any](rep *report, build func() (S, error), closeFn func(S)) (S, error) {
	var durs []float64
	var st S
	for i := 0; i < minSetupRounds || sum(durs) < minSetupTime.Seconds(); i++ {
		if i > 0 {
			closeFn(st)
		}
		runtime.GC()
		t := time.Now()
		var err error
		st, err = build()
		durs = append(durs, time.Since(t).Seconds())
		if err != nil {
			var zero S
			return zero, err
		}
	}
	rep.add("setup_s", median(durs), "s", len(durs))
	runtime.GC()
	return st, nil
}

// median returns the middle of xs (the mean of the two middles for an
// even count); 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailOK reports whether the q-quantile of n samples has at least ten
// samples beyond it, the condition for reporting that percentile.
func tailOK(n int, q float64) bool { return float64(n)*(1-q) >= 10 }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// memAcc sums Go runtime allocation and GC work over measured windows.
type memAcc struct {
	alloc uint64
	gcs   uint32
}

func startMem() *runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return &m
}

// add adds the work done since before was read.
func (a *memAcc) add(before *runtime.MemStats) {
	after := startMem()
	a.alloc += after.TotalAlloc - before.TotalAlloc
	a.gcs += after.NumGC - before.NumGC
}

// finish records go.alloc_bytes_per_op over ops operations and
// go.gc_cycles per pass.
func (a *memAcc) finish(rep *report, ops int64, passes int) {
	rep.add("go.alloc_bytes_per_op", ratio(int64(a.alloc), ops), "B/op", int(ops))
	rep.add("go.gc_cycles", float64(a.gcs)/float64(passes), "count", passes)
}

// mix64 is the splitmix64 finalizer: the cheap, checkable part of every
// memo and tier compute.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// busy is the fixed busy work of a compute: n dependent multiply-xor
// steps, which the compiler cannot drop because compute keeps the
// result alive.
func busy(x uint64, n int) uint64 {
	for i := 0; i < n; i++ {
		x = (x ^ x>>29) * 0x9e3779b97f4a7c15
	}
	return x
}
