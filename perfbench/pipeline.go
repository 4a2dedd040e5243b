package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"time"

	"compreuse/internal/bench"
	"compreuse/internal/callgraph"
	"compreuse/internal/cleanup"
	"compreuse/internal/core"
	"compreuse/internal/cost"
	"compreuse/internal/dataflow"
	"compreuse/internal/interp"
	"compreuse/internal/minic"
	"compreuse/internal/opt"
	"compreuse/internal/pointer"
	"compreuse/internal/profile"
	"compreuse/internal/reusetab"
	"compreuse/internal/segment"
	"compreuse/internal/specialize"
	"compreuse/internal/statreuse"
	"compreuse/internal/transform"
)

// Pass sizes: every program's workload argument (its second main
// argument) is divided by one factor per workload.
const (
	suiteDivisor = 3   // the largest suite that still transforms both MPEG2 programs
	smallDivisor = 256 // small enough that the analyses outweigh the VM
)

// pipeJob is one core.Run call of a pass.
type pipeJob struct {
	opts core.Options
	row  string // per-program metric suffix ("" for no row)
}

func runPipelineSuite(cfg config, rep *report) error {
	var jobs []pipeJob
	for _, p := range bench.Core() {
		jobs = append(jobs, newPipeJob(p, "O0", suiteDivisor, cfg.seed, p.Name))
	}
	return runPipeline(cfg, rep, jobs)
}

func runPipelineSmall(cfg config, rep *report) error {
	var jobs []pipeJob
	for _, p := range bench.All() {
		if p.Name == "GNUGO" {
			continue
		}
		for _, level := range []string{"O0", "O3"} {
			jobs = append(jobs, newPipeJob(p, level, smallDivisor, cfg.seed, ""))
		}
	}
	return runPipeline(cfg, rep, jobs)
}

// newPipeJob builds the options of one call. Every suite program's
// first main argument seeds its input generator: seed 0 keeps the
// training value, any other seed derives a new one per program.
func newPipeJob(p bench.Program, level string, div int64, seed uint64, row string) pipeJob {
	o := p.RunOptions(level)
	o.MainArgs = []int64{programSeed(seed, p), p.TrainArgs[1] / div}
	return pipeJob{opts: o, row: row}
}

func programSeed(seed uint64, p bench.Program) int64 {
	if seed == 0 {
		return p.TrainArgs[0]
	}
	h := fnv.New64a()
	h.Write([]byte(p.Name))
	// The generators are 30-bit linear congruential; any value in
	// [1, 2^30) is a valid seed.
	return int64(mix64(seed^h.Sum64())%(1<<30-1)) + 1
}

// runPipeline times passes of core.Run over jobs. Set-up loads and
// type-checks every source; a warm-up pass gives the reference reports
// every later pass must reproduce exactly.
func runPipeline(cfg config, rep *report, jobs []pipeJob) error {
	_, err := timedSetup(rep, func() ([]pipeJob, error) {
		for _, j := range jobs {
			prog, err := minic.Parse(j.opts.Name, j.opts.Source)
			if err == nil {
				err = minic.Check(prog)
			}
			if err != nil {
				return nil, err
			}
		}
		return jobs, nil
	}, func([]pipeJob) {})
	if err != nil {
		return err
	}

	refs := make([]*core.Report, len(jobs))
	for i, j := range jobs {
		r, err := core.Run(j.opts)
		rep.attempted++
		if err != nil {
			return fmt.Errorf("%s %s: %w", j.opts.Name, j.opts.OptLevel, err)
		}
		if r.Reuse.Output != r.Baseline.Output || r.Reuse.Ret != r.Baseline.Ret {
			rep.fail("%s %s: transformed program output differs from the baseline", j.opts.Name, j.opts.OptLevel)
		}
		refs[i] = r
	}
	reportDecisions(rep, jobs, refs)

	// untraced runs one timed pass of core.Run calls and checks each
	// report against the warm-up's.
	var passes, calls []float64
	jobSec := make([][]float64, len(jobs))
	untraced := func() error {
		start := time.Now()
		for i, j := range jobs {
			t := time.Now()
			r, err := core.Run(j.opts)
			d := time.Since(t).Seconds()
			rep.attempted++
			if err != nil {
				return fmt.Errorf("%s %s: %w", j.opts.Name, j.opts.OptLevel, err)
			}
			calls = append(calls, d*1e6)
			jobSec[i] = append(jobSec[i], d)
			if !sameReport(r, refs[i]) {
				rep.fail("%s %s: report differs from the warm-up pass", j.opts.Name, j.opts.OptLevel)
			}
		}
		passes = append(passes, time.Since(start).Seconds())
		return nil
	}

	if !cfg.trace {
		start := time.Now()
		for len(passes) == 0 || time.Since(start).Seconds() < cfg.seconds {
			if err := untraced(); err != nil {
				return err
			}
		}
		// A pass is the sum of its calls' median times: a burst of host
		// load that slows one call of one pass does not move it.
		var pass float64
		for _, s := range jobSec {
			pass += median(s)
		}
		rep.add("pass_s", pass, "s", len(passes))
		rep.add("calls_per_s", float64(len(jobs))/pass, "1/s", len(calls))
		rep.add("call_p50_us", median(calls), "us", len(calls))
		return nil
	}

	// Traced run: untraced and traced passes alternate, so drift on the
	// host affects both sides of trace.overhead alike. The Go runtime
	// counters cover the untraced passes only.
	tr := newTracer(time.Now())
	var tracedPasses, covs, mops []float64
	stageMS := map[string][]float64{}
	var ops int64
	var mem memAcc
	start := time.Now()
	for len(passes) == 0 || len(tracedPasses) == 0 || time.Since(start).Seconds() < cfg.seconds {
		if len(passes) <= len(tracedPasses) {
			m := startMem()
			if err := untraced(); err != nil {
				return err
			}
			mem.add(m)
			continue
		}
		tr.reset()
		t := time.Now()
		ops = 0
		for i, j := range jobs {
			got, err := replay(tr, j.opts, refs[i])
			rep.attempted++
			if err != nil {
				return fmt.Errorf("replay %s %s: %w", j.opts.Name, j.opts.OptLevel, err)
			}
			if got.cycles != refs[i].Reuse.Cycles || got.output != refs[i].Reuse.Output || got.ret != refs[i].Reuse.Ret {
				rep.fail("replay %s %s: reuse run has %d cycles, core.Run had %d",
					j.opts.Name, j.opts.OptLevel, got.cycles, refs[i].Reuse.Cycles)
			}
			ops += got.ops
		}
		tr.fold()
		tracedPasses = append(tracedPasses, time.Since(t).Seconds())
		layers, cov := mergeTracers(tr)
		for name := range stageMetrics {
			stageMS[name] = append(stageMS[name], float64(layers[name].SelfNS)/1e6)
		}
		covs = append(covs, cov)
		vmNS := layers["interp.base"].SelfNS + layers["profile.collect"].SelfNS + layers["interp.reuse"].SelfNS
		mops = append(mops, ratio(ops*1000, vmNS))
		logSplit(layers)
	}
	for name, metricName := range stageMetrics {
		rep.add(metricName, median(stageMS[name]), "ms", len(tracedPasses))
	}
	rep.add("interp.ops", float64(ops), "count", len(tracedPasses))
	rep.add("interp.mops_per_s", median(mops), "Mop/s", len(tracedPasses))
	rep.add("trace.coverage", median(covs), "ratio", len(tracedPasses))
	rep.add("trace.overhead", median(tracedPasses)/median(passes)-1, "ratio", len(tracedPasses)+len(passes))
	for i, j := range jobs {
		if j.row != "" {
			rep.add("run_ms."+j.row, median(jobSec[i])*1e3, "ms", len(jobSec[i]))
		}
	}
	mem.finish(rep, int64(len(passes)*len(jobs)), len(passes))
	layers, _ := mergeTracers(tr)
	return writeTrace(cfg.traceOut, layers, tr)
}

// stageMetrics maps the replay's span names to their per-layer metrics.
var stageMetrics = map[string]string{
	"minic.frontend":  "minic.frontend_ms",
	"specialize":      "specialize.ms",
	"opt":             "opt.ms",
	"pointer":         "pointer.ms",
	"callgraph":       "callgraph.ms",
	"dataflow":        "dataflow.ms",
	"segment":         "segment.ms",
	"statreuse":       "statreuse.ms",
	"transform":       "transform.ms",
	"interp.base":     "interp.base_ms",
	"interp.reuse":    "interp.reuse_ms",
	"profile.collect": "profile.collect_ms",
}

// logSplit prints, as a comment line, the share of a traced pass spent
// in the VM and in the compile-time stages. Self times partition the
// root spans, so their sum is the traced time.
func logSplit(layers map[string]layerTime) {
	var total int64
	for _, lt := range layers {
		total += lt.SelfNS
	}
	vm := layers["interp.base"].SelfNS + layers["interp.reuse"].SelfNS + layers["profile.collect"].SelfNS
	var compile int64
	for _, name := range []string{"minic.frontend", "cleanup", "specialize", "opt", "pointer", "callgraph", "dataflow", "segment", "statreuse", "transform"} {
		compile += layers[name].SelfNS
	}
	fmt.Fprintf(os.Stderr, "# split: vm+profile %.3f, front end+analyses+transform %.3f of %.3fs traced\n",
		ratio(vm, total), ratio(compile, total), float64(total)/1e9)
}

// reportDecisions records the exact, decision-derived metrics of the
// warm-up reports: speedups from cycle counts and VM table counters.
func reportDecisions(rep *report, jobs []pipeJob, refs []*core.Report) {
	var speedups []float64
	var probes, hits int64
	for i, r := range refs {
		speedups = append(speedups, r.Speedup())
		if jobs[i].row != "" {
			rep.add("speedup."+jobs[i].row, r.Speedup(), "ratio", 1)
		}
		for _, t := range r.Tables {
			probes += t.Stats.Probes
			hits += t.Stats.Hits
		}
	}
	rep.add("speedup_geomean", geomean(speedups), "ratio", len(speedups))
	rep.add("reusetab.table_probes", float64(probes), "count", len(refs))
	rep.add("reusetab.table_hit_ratio", ratio(hits, probes), "ratio", int(probes))
}

// sameReport reports whether two reports of one program agree on every
// measured outcome.
func sameReport(a, b *core.Report) bool {
	if a.Baseline != b.Baseline || a.Reuse.Cycles != b.Reuse.Cycles || a.Reuse.Ret != b.Reuse.Ret ||
		a.Reuse.Output != b.Reuse.Output || len(a.Tables) != len(b.Tables) {
		return false
	}
	for i := range a.Tables {
		if a.Tables[i].Stats != b.Tables[i].Stats {
			return false
		}
	}
	return true
}

// replayed is what the traced replay of one program produced.
type replayed struct {
	cycles, ret, ops int64
	output           string
}

// replay repeats core.Run's stage calls for one program under spans,
// taking the segment selection and table sizes from the program's
// report, so its reuse run must reproduce the report's cycles.
func replay(t *tracer, o core.Options, ref *core.Report) (replayed, error) {
	var out replayed
	root := t.begin("program")
	defer t.end(root)
	model := cost.ModelFor(o.OptLevel)
	runOpts := func(freq bool) interp.Options {
		return interp.Options{Model: model, MaxSteps: o.MaxSteps, CollectFreq: freq, Args: o.MainArgs}
	}

	// Copy A: frequency profile, which is also the baseline run.
	pa, err := tracedPrep(t, o, model)
	if err != nil {
		return out, err
	}
	id := t.begin("interp.base")
	freqRes, err := interp.Run(pa.prog, runOpts(true))
	t.end(id)
	if err != nil {
		return out, err
	}
	out.ops += opsTotal(freqRes.Ops)

	// Copy B: value-set profiling of the candidates that pass the
	// frequency filter.
	cands := profile.FrequencyFilter(pa.an.Candidates(), freqRes.Freq, o.MinFreq)
	if len(cands) > 0 {
		names := map[string]bool{}
		for _, s := range cands {
			names[s.Name] = true
		}
		pb, err := tracedPrep(t, o, model)
		if err != nil {
			return out, err
		}
		id := t.begin("profile.collect")
		_, res, err := profile.Collect(pb.prog, segmentsNamed(pb.an, names), model, runOpts(false))
		t.end(id)
		if err != nil {
			return out, err
		}
		out.ops += opsTotal(res.Ops)
	}
	id = t.begin("statreuse")
	statreuse.EstimateAll(pa.an)
	t.end(id)

	// Copy C: transform the selected segments, size their tables as
	// the report did, and measure.
	selected := map[string]bool{}
	for _, d := range ref.Decisions {
		if d.Selected {
			selected[d.Name] = true
		}
	}
	entries := map[string]int{}
	for _, ti := range ref.Tables {
		entries[ti.Name] = ti.Entries
	}
	pc, err := tracedPrep(t, o, model)
	if err != nil {
		return out, err
	}
	id = t.begin("transform")
	tres := transform.Apply(pc.prog, segmentsNamed(pc.an, selected), transform.Options{})
	_ = minic.Print(pc.prog)
	t.end(id)
	tabs := map[int]*reusetab.Table{}
	for _, ts := range tres.Tables {
		tabs[ts.ID] = reusetab.New(ts.Config(reusetab.ModeReuse, entries[ts.Name], false))
	}
	ro := runOpts(false)
	ro.Tables = tabs
	id = t.begin("interp.reuse")
	res, err := interp.Run(pc.prog, ro)
	t.end(id)
	if err != nil {
		return out, err
	}
	out.ops += opsTotal(res.Ops)
	out.cycles, out.ret, out.output = res.Cycles, res.Ret, res.Output
	return out, nil
}

// prepared is one analyzed copy of a program.
type prepared struct {
	prog *minic.Program
	an   *segment.Analysis
}

// tracedPrep repeats core's per-copy preparation — front end, clean-up,
// specialization with its own analysis pre-pass, O3 optimization, and
// the analyses — with one span per layer call.
func tracedPrep(t *tracer, o core.Options, model *cost.Model) (*prepared, error) {
	id := t.begin("minic.frontend")
	prog, err := minic.Parse(o.Name, o.Source)
	if err == nil {
		err = minic.Check(prog)
	}
	t.end(id)
	if err != nil {
		return nil, err
	}
	id = t.begin("cleanup")
	cleanup.Run(prog)
	t.end(id)
	if !o.NoSpecialize {
		sid := t.begin("specialize")
		pts, cg, eff := tracedAnalyses(t, prog)
		specialize.Run(prog, pts, cg, eff, specialize.Options{})
		t.end(sid)
	}
	if model.Name == "O3" {
		id = t.begin("opt")
		opt.Run(prog)
		t.end(id)
	}
	pts, cg, eff := tracedAnalyses(t, prog)
	id = t.begin("segment")
	an := segment.Analyze(prog, pts, cg, eff, segment.Options{Model: model, SubBlocks: o.SubBlocks})
	t.end(id)
	return &prepared{prog: prog, an: an}, nil
}

func tracedAnalyses(t *tracer, prog *minic.Program) (*pointer.Analysis, *callgraph.Graph, *dataflow.Effects) {
	id := t.begin("pointer")
	pts := pointer.Analyze(prog)
	t.end(id)
	id = t.begin("callgraph")
	cg := callgraph.Build(prog, pts)
	t.end(id)
	id = t.begin("dataflow")
	eff := dataflow.ComputeEffects(prog, pts, cg)
	t.end(id)
	return pts, cg, eff
}

func segmentsNamed(an *segment.Analysis, names map[string]bool) []*segment.Segment {
	var out []*segment.Segment
	for _, s := range an.Segments {
		if names[s.Name] {
			out = append(out, s)
		}
	}
	return out
}

func opsTotal(c interp.OpCounts) int64 {
	return c.IntOps + c.MulOps + c.DivOps + c.FloatOps + c.MemOps + c.Branches + c.Calls + c.HashOps
}
