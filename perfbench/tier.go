package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"compreuse"
	"compreuse/internal/reused"
	"compreuse/internal/reusetab"
	"compreuse/internal/wire"
)

// tier-mixed: two callers on one TieredMemo whose L2 is a reuse server
// in this process, reached over a unix socket.
const (
	tierUniverse = 1 << 15 // seed-drawn keys, more than the remote table holds
	tierZipf     = 1.1
	tierStream   = 1 << 16 // keys per caller before its stream repeats
	tierRemote   = 1 << 13 // server-side LRU entries
	tierL1       = 1 << 9  // L1 LRU entries, fewer than the hot set
	// tierPrefill is how many of the hottest keys set-up PUTs, so the
	// server starts warm. From a cold table the governor's first window
	// sees no hits, bypasses the segment, and resets the table again on
	// readmission, so a cold start never reaches steady state.
	tierPrefill = 1 << 12
	// tierWork makes a compute cost several GET round trips, so the
	// server's admission test R·C − O > 0 holds with a wide margin.
	tierWork = 75000
	// A timed batch is 8 calls: an L1 hit costs well under a
	// microsecond, too short to time alone.
	tierBatch  = 8
	tierPasses = 256 // batches per caller per pass
)

type tierState struct {
	srv     *reused.Server
	served  chan error
	client  *compreuse.Client
	tm      *compreuse.TieredMemo
	cs      []*caller
	keys    []uint64
	streams [][]uint64
}

// close stops the client and the server and waits for Serve to return.
func (st *tierState) close() {
	if st == nil {
		return
	}
	if st.client != nil {
		st.client.Close()
	}
	st.srv.Close()
	<-st.served
}

// startTier boots a reuse server on an abstract unix socket (no file
// to clean up; round keeps the names of set-up rounds apart), dials it
// with two connections and registers the tiered segment.
func startTier(seed uint64, epoch time.Time, round int) (*tierState, error) {
	name := fmt.Sprintf("@perfbench-%d-%d", os.Getpid(), round)
	ln, err := net.Listen("unix", name)
	if err != nil {
		return nil, err
	}
	st := &tierState{srv: reused.New(reused.Config{}), served: make(chan error, 1)}
	go func() { st.served <- st.srv.Serve(ln) }()
	st.client, err = compreuse.DialCache(compreuse.ClientConfig{Addr: "unix://" + name, Conns: callers})
	if err == nil {
		st.tm, err = compreuse.NewTieredMemo(st.client, compreuse.TieredMemoConfig{
			Name: "tier-mixed", L1Entries: tierL1, L1LRU: true,
			Remote: compreuse.SegmentConfig{Entries: tierRemote, LRU: true},
		})
	}
	if err != nil {
		st.close()
		return nil, err
	}
	st.keys, st.streams = keyStreams(seed, tierUniverse, tierStream, tierZipf)
	st.cs = newCallers(st.streams, epoch)
	if err := st.prefill(); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// prefill PUTs the values of the tierPrefill hottest keys, from both
// callers at once, each with the cost of one compute as its C.
func (st *tierState) prefill() error {
	seg, err := st.client.Segment("tier-mixed", compreuse.SegmentConfig{Entries: tierRemote, LRU: true})
	if err != nil {
		return err
	}
	t := time.Now()
	compute(st.keys[0], tierWork)
	cost := time.Since(t)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < tierPrefill && errs[c] == nil; i += callers {
				k := st.keys[i]
				errs[c] = seg.Put(binary.LittleEndian.AppendUint64(nil, k), []uint64{mix64(k)}, cost)
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func runTierMixed(cfg config, rep *report) error {
	epoch := time.Now()
	round := 0
	st, err := timedSetup(rep, func() (*tierState, error) {
		round++
		return startTier(cfg.seed, epoch, round)
	}, func(st *tierState) { st.close() })
	if err != nil {
		return err
	}
	defer st.close()

	l := &loop{batch: tierBatch, batchesPerPass: tierPasses}
	workers := map[*caller]*tierWorker{}
	for _, c := range st.cs {
		workers[c] = newTierWorker(st.tm, c)
	}
	l.untraced = func(c *caller, keys []uint64) { workers[c].untraced(keys) }
	l.traced = func(c *caller, keys []uint64) { workers[c].traced(keys) }
	l.warm(st.cs)

	before := st.tm.Stats()
	l1Before := st.tm.L1Stats()
	run := l.measure(cfg, rep, st.cs)
	after := st.tm.Stats()
	remote, err := st.tm.RemoteStats()
	if err != nil {
		return fmt.Errorf("remote stats: %w", err)
	}
	// A governor flip to BYPASS makes the workload bimodal; every call it
	// answered, and every remote error, is a failed operation.
	if n := after.Bypassed + after.Errors; n > 0 || remote.BypassedNow {
		rep.fail("tier-mixed: %d bypassed and %d failed remote calls (bypassed now: %v, R=%.3f C=%v O=%v)",
			after.Bypassed, after.Errors, remote.BypassedNow, remote.R, remote.C, remote.O)
		rep.failed += max(n-1, 0)
	}
	reportLoad(rep, l, run)
	if !cfg.trace {
		return nil
	}

	if _, err := reportTrace(cfg, rep, run, st.cs); err != nil {
		return err
	}
	calls := after.Calls - before.Calls
	rep.add("tiered.l1_hit_ratio", ratio(after.L1Hits-before.L1Hits, calls), "ratio", int(calls))
	rep.add("tiered.l2_hit_ratio", ratio(after.L2Hits-before.L2Hits, calls), "ratio", int(calls))
	rep.add("tiered.compute_ratio", ratio(after.Computes-before.Computes, calls), "ratio", int(calls))
	rep.add("tiered.bypass_ratio", ratio(after.Bypassed-before.Bypassed, calls), "ratio", int(calls))
	rep.add("tiered.error_ratio", ratio(after.Errors-before.Errors, calls), "ratio", int(calls))
	l1 := st.tm.L1Stats()
	nPasses := float64(len(run.passes) + len(run.tracedPasses))
	rep.add("memotable.hit_ratio", ratio(l1.Hits-l1Before.Hits, l1.Calls-l1Before.Calls), "ratio", int(l1.Calls-l1Before.Calls))
	rep.add("memotable.evictions", float64(l1.Evictions-l1Before.Evictions)/nPasses, "count", int(nPasses))
	rep.add("reused.hit_ratio", ratio(remote.Hits, remote.Probes), "ratio", int(remote.Probes))
	rep.add("reused.resident", float64(remote.Resident), "count", 1)
	rep.add("reused.c_us", remote.C.Seconds()*1e6, "us", 1)
	rep.add("reused.o_us", remote.O.Seconds()*1e6, "us", 1)
	reportCompute(rep, st.keys, tierWork, 1)
	if err := reportClient(rep, st); err != nil {
		return err
	}
	reportWire(rep, st.streams[0])
	reportSharded(rep, st.streams[0])
	return nil
}

// tierWorker is one caller's TieredMemo client.
type tierWorker struct {
	tm        *compreuse.TieredMemo
	c         *caller
	kb        [8]byte
	k         uint64
	compute   func() uint64
	tracedCmp func() uint64
}

func newTierWorker(tm *compreuse.TieredMemo, c *caller) *tierWorker {
	w := &tierWorker{tm: tm, c: c}
	w.compute = func() uint64 {
		c.computes++
		return compute(w.k, tierWork)
	}
	w.tracedCmp = func() uint64 {
		id := c.tr.begin("compute")
		v := w.compute()
		c.tr.end(id)
		return v
	}
	return w
}

func (w *tierWorker) do(k uint64, compute func() uint64) {
	w.k = k
	binary.LittleEndian.PutUint64(w.kb[:], k)
	w.c.check("TieredMemo", k, w.tm.Do(w.kb[:], compute))
}

func (w *tierWorker) untraced(keys []uint64) {
	for _, k := range keys {
		w.do(k, w.compute)
	}
}

// traced gives each call a tiered.do span under the batch's root, with
// the compute of a miss as its child.
func (w *tierWorker) traced(keys []uint64) {
	tr := w.c.tr
	root := tr.begin("batch")
	for _, k := range keys {
		id := tr.begin("tiered.do")
		w.do(k, w.tracedCmp)
		tr.end(id)
	}
	tr.end(root)
}

// reportClient times RemoteSegment.Put and then Get on warm keys, from
// both callers at once, on a segment of its own so the workload's table
// is untouched: 1024 PUTs and 4096 GETs per caller.
func reportClient(rep *report, st *tierState) error {
	const puts, gets = 1024, 4096
	seg, err := st.client.Segment("tier-mixed/probe", compreuse.SegmentConfig{})
	if err != nil {
		return err
	}
	putLat := make([][]float64, callers)
	getLat := make([][]float64, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			key := func(i int) []byte {
				return binary.LittleEndian.AppendUint64(nil, st.keys[(c*puts+i)%len(st.keys)])
			}
			for i := 0; i < puts; i++ {
				k := key(i)
				t := time.Now()
				err := seg.Put(k, []uint64{mix64(st.keys[(c*puts+i)%len(st.keys)])}, time.Millisecond)
				putLat[c] = append(putLat[c], time.Since(t).Seconds()*1e6)
				if err != nil {
					errs[c] = err
					return
				}
			}
			for i := 0; i < gets; i++ {
				k := key(i % puts)
				t := time.Now()
				vals, status, err := seg.Get(k)
				getLat[c] = append(getLat[c], time.Since(t).Seconds()*1e6)
				if err == nil && (status != compreuse.Hit || len(vals) != 1) {
					err = fmt.Errorf("warm GET answered %v with %d values", status, len(vals))
				}
				if err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("client probe: %w", err)
	}
	var put, get []float64
	for c := 0; c < callers; c++ {
		put = append(put, putLat[c]...)
		get = append(get, getLat[c]...)
	}
	rep.add("client.put_p50_us", median(put), "us", len(put))
	rep.add("client.get_p50_us", median(get), "us", len(get))
	if tailOK(len(get), 0.99) {
		rep.add("client.get_p99_us", quantile(get, 0.99), "us", len(get))
	}
	return nil
}

// reportWire times the wire codec on this workload's GET and PUT
// frames: batches of 256 frames, alternating GET and PUT, encoded into
// one buffer and then decoded.
func reportWire(rep *report, stream []uint64) {
	const per, batches = 256, 64
	frames := make([]wire.Frame, per*batches)
	for i := range frames {
		k := stream[i%len(stream)]
		f := wire.Frame{Op: wire.OpGet, Seg: 1, Seq: uint64(i), Cost: 30000,
			Key: binary.LittleEndian.AppendUint64(nil, k)}
		if i%2 == 1 {
			f.Op, f.Cost, f.Vals = wire.OpPut, 200000, []uint64{mix64(k)}
		}
		frames[i] = f
	}
	buf := make([]byte, 0, 64*per)
	ends := make([]int, per)
	encoded := make([][]byte, batches)
	enc := timeBatches(batches, per, func(b int) {
		buf = buf[:0]
		for i := 0; i < per; i++ {
			buf = wire.AppendFrame(buf, &frames[b*per+i])
			ends[i] = len(buf)
		}
		encoded[b] = append(encoded[b][:0], buf...)
	})
	var f wire.Frame
	var bad int
	dec := timeBatches(batches, per, func(b int) {
		data := encoded[b]
		for len(data) > 0 {
			n := int(binary.LittleEndian.Uint32(data))
			if wire.DecodeFrame(data[4:4+n], &f) != nil {
				bad++
			}
			data = data[4+n:]
		}
	})
	if bad > 0 {
		rep.fail("wire: %d frames failed to decode", bad)
	}
	rep.add("wire.encode_ns", enc, "ns", per*batches)
	rep.add("wire.decode_ns", dec, "ns", per*batches)
}

// reportSharded times a Sharded table configured as the server
// configures a segment's table, on the workload's key stream: each
// batch of 256 keys is probed, then the misses are recorded.
func reportSharded(rep *report, stream []uint64) {
	const per = 256
	srvShards := 1
	for srvShards < runtime.GOMAXPROCS(0) {
		srvShards <<= 1
	}
	tab := reusetab.NewSharded(reusetab.Config{
		Name: "tier-mixed", Segs: 1, KeyBytes: 16, OutWords: []int{1}, OutBytes: []int{8},
		Entries: tierRemote, LRU: true,
	}, srvShards)
	keys := make([][]byte, len(stream))
	for i, k := range stream {
		keys[i] = binary.LittleEndian.AppendUint64(nil, k)
	}
	var misses [][]byte
	out := []uint64{1}
	var probeNS, recordNS, probes, records int64
	batch := func(b int, timed bool) {
		misses = misses[:0]
		t := time.Now()
		for i := 0; i < per; i++ {
			k := keys[(b*per+i)%len(keys)]
			if _, ok := tab.ProbeWord(0, k); !ok {
				misses = append(misses, k)
			}
		}
		mid := time.Now()
		for _, k := range misses {
			tab.Record(0, k, out)
		}
		if timed {
			probeNS += int64(mid.Sub(t))
			recordNS += int64(time.Since(mid))
			probes += per
			records += int64(len(misses))
		}
	}
	// One untimed sweep of the stream fills the table first.
	n := len(keys) / per
	for b := 0; b < n; b++ {
		batch(b, false)
	}
	for b := 0; b < n; b++ {
		batch(b, true)
	}
	rep.add("reusetab.sharded_probe_ns", ratio(probeNS, probes), "ns", int(probes))
	rep.add("reusetab.sharded_record_ns", ratio(recordNS, records), "ns", int(records))
}
