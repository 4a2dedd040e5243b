package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"
)

// The closed loop of memo-local and tier-mixed: two callers, each
// sending its next call only after the previous one returns, both in
// this process. GOMAXPROCS is left at its default.
const callers = 2

// keyStreams draws each caller's key stream: Zipf(s) ranks over a
// universe of seed-drawn 64-bit keys. A caller cycles through its
// stream, so the key universe and the run's state stay bounded however
// long the run.
func keyStreams(seed uint64, universe, length int, s float64) (keys []uint64, streams [][]uint64) {
	keys = make([]uint64, universe)
	for i := range keys {
		keys[i] = mix64(seed*0x9e3779b97f4a7c15 + uint64(i) + 1)
	}
	for c := 0; c < callers; c++ {
		r := rand.New(rand.NewPCG(seed, uint64(c)+1))
		z := rand.NewZipf(r, s, 1, uint64(universe-1))
		st := make([]uint64, length)
		for i := range st {
			st[i] = keys[z.Uint64()]
		}
		streams = append(streams, st)
	}
	return keys, streams
}

// caller is one closed-loop client: its key stream and its counters.
type caller struct {
	stream []uint64
	pos    int
	batch  []uint64 // the keys of the current batch

	lat      []float64 // timed batch durations, seconds
	calls    int64
	computes int64
	bad      int64
	badMsg   string
	tr       *tracer
}

func newCallers(streams [][]uint64, epoch time.Time) []*caller {
	var cs []*caller
	for _, s := range streams {
		cs = append(cs, &caller{stream: s, tr: newTracer(epoch)})
	}
	return cs
}

// next fills c.batch with the next n keys of the stream.
func (c *caller) next(n int) []uint64 {
	c.batch = c.batch[:0]
	for i := 0; i < n; i++ {
		c.batch = append(c.batch, c.stream[c.pos])
		c.pos++
		if c.pos == len(c.stream) {
			c.pos = 0
		}
	}
	return c.batch
}

// check counts a returned value against its key's expected value.
func (c *caller) check(what string, k, got uint64) {
	if got != mix64(k) {
		c.bad++
		if c.badMsg == "" {
			c.badMsg = fmt.Sprintf("%s: key %#x returned %#x, want %#x", what, k, got, mix64(k))
		}
	}
}

// compute is the workload's compute: fixed busy work, then a cheap mix
// of the key that check verifies without recomputing.
func compute(k uint64, work int) uint64 {
	runtime.KeepAlive(busy(k, work))
	return mix64(k)
}

// loop is one closed-loop workload: how a caller runs a batch of calls
// untraced and traced, and how long a pass is.
type loop struct {
	batch          int // calls per timed batch
	batchesPerPass int // per caller
	untraced       func(c *caller, keys []uint64)
	traced         func(c *caller, keys []uint64)
}

// pass runs one pass on every caller concurrently and returns its wall
// time. Untraced batches are timed; a traced pass records spans instead
// and folds them at the end.
func (l *loop) pass(cs []*caller, traced bool) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range cs {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			for b := 0; b < l.batchesPerPass; b++ {
				keys := c.next(l.batch)
				c.calls += int64(len(keys))
				if traced {
					l.traced(c, keys)
					continue
				}
				t := time.Now()
				l.untraced(c, keys)
				c.lat = append(c.lat, time.Since(t).Seconds())
			}
			if traced {
				c.tr.fold()
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// warm runs every caller once through its whole stream, untimed, so the
// tables reach their steady state before measurement.
func (l *loop) warm(cs []*caller) {
	n := len(cs[0].stream) / (l.batch * l.batchesPerPass)
	for i := 0; i <= n; i++ {
		l.pass(cs, false)
	}
	for _, c := range cs {
		c.lat, c.calls, c.computes = c.lat[:0], 0, 0
	}
}

// loadRun is what the measured passes of a closed-loop run produced.
type loadRun struct {
	passes, tracedPasses []float64
	lat                  []float64 // untraced batch durations, seconds
	calls, computes      int64     // over the untraced passes
	tracedCalls          int64
}

// measure runs passes for cfg.seconds. Untraced, every pass is timed.
// Traced, untraced and traced passes alternate (at least one of each),
// so host drift affects both sides of trace.overhead alike; the Go
// runtime counters then cover the untraced passes only. Wrong values
// become failed operations in rep.
func (l *loop) measure(cfg config, rep *report, cs []*caller) loadRun {
	var run loadRun
	var mem memAcc
	start := time.Now()
	for len(run.passes) == 0 || (cfg.trace && len(run.tracedPasses) == 0) ||
		time.Since(start).Seconds() < cfg.seconds {
		if cfg.trace && len(run.tracedPasses) < len(run.passes) {
			before := snapshotCounts(cs)
			run.tracedPasses = append(run.tracedPasses, l.pass(cs, true))
			run.tracedCalls += snapshotCounts(cs).calls - before.calls
			continue
		}
		before := snapshotCounts(cs)
		m := startMem()
		run.passes = append(run.passes, l.pass(cs, false))
		mem.add(m)
		after := snapshotCounts(cs)
		run.calls += after.calls - before.calls
		run.computes += after.computes - before.computes
	}
	for _, c := range cs {
		run.lat = append(run.lat, c.lat...)
		rep.attempted += c.calls
		if c.bad > 0 {
			rep.failed += c.bad
			rep.failures = append(rep.failures, c.badMsg)
		}
	}
	if cfg.trace {
		mem.finish(rep, run.calls, len(run.passes))
	}
	return run
}

type counts struct{ calls, computes int64 }

func snapshotCounts(cs []*caller) counts {
	var n counts
	for _, c := range cs {
		n.calls += c.calls
		n.computes += c.computes
	}
	return n
}

// reportLoad records the closed loop's end-to-end metrics: pass time,
// throughput, per-call latency from the timed batches, and the share of
// calls served without computing.
func reportLoad(rep *report, l *loop, run loadRun) {
	// Every pass makes the same number of calls, so throughput is that
	// number over the median pass.
	pass := median(run.passes)
	rep.add("pass_s", pass, "s", len(run.passes))
	rep.add("calls_per_s", float64(run.calls)/float64(len(run.passes))/pass, "1/s", len(run.passes))
	perCall := make([]float64, len(run.lat))
	for i, d := range run.lat {
		perCall[i] = d * 1e6 / float64(l.batch)
	}
	rep.add("call_p50_us", median(perCall), "us", len(perCall))
	if tailOK(len(perCall), 0.99) {
		rep.add("call_p99_us", quantile(perCall, 0.99), "us", len(perCall))
	}
	// The compute work the memo saves: calls over the computes they
	// cost, the count-based counterpart of the pipelines' cycle ratio.
	rep.add("speedup_geomean", ratio(run.calls, run.computes), "ratio", int(run.calls))
}

// reportTrace records the traced passes' coverage and overhead and
// writes the spans out.
func reportTrace(cfg config, rep *report, run loadRun, cs []*caller) (map[string]layerTime, error) {
	var ts []*tracer
	for _, c := range cs {
		ts = append(ts, c.tr)
	}
	layers, cov := mergeTracers(ts...)
	rep.add("trace.coverage", cov, "ratio", len(run.tracedPasses))
	rep.add("trace.overhead", median(run.tracedPasses)/median(run.passes)-1, "ratio",
		len(run.tracedPasses)+len(run.passes))
	return layers, writeTrace(cfg.traceOut, layers, ts...)
}

// timeBatches times fn over batches and returns the median batch time
// divided by per (the calls in a batch), in nanoseconds.
func timeBatches(batches, per int, fn func(b int)) float64 {
	ds := make([]float64, batches)
	for b := range ds {
		t := time.Now()
		fn(b)
		ds[b] = float64(time.Since(t).Nanoseconds()) / float64(per)
	}
	return median(ds)
}
