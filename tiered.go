package compreuse

import (
	"sync/atomic"
	"time"

	"compreuse/internal/flight"
	"compreuse/internal/obs"
)

// TieredMemoConfig sizes a TieredMemo.
type TieredMemoConfig struct {
	// Name is the shared segment name on the server; every process in
	// the fleet using the same name shares one L2 table.
	Name string
	// L1Entries bounds the process-local L1 table (0 = unbounded).
	L1Entries int
	// L1LRU selects LRU replacement for a bounded L1.
	L1LRU bool
	// L1Shards stripes the L1 for parallel callers (0 = 1).
	L1Shards int
	// Remote configures the server-side table (Entries/LRU; OutWords
	// is forced to 1 — TieredMemo caches single-word values).
	Remote SegmentConfig
}

// TieredStats counts where a TieredMemo's calls were served from.
type TieredStats struct {
	// Calls is the number of Do invocations.
	Calls int64
	// L1Hits were served from the process-local table — no round trip.
	L1Hits int64
	// L2Hits were served from the shared remote table — one RTT, no
	// computation.
	L2Hits int64
	// Computes ran the computation (remote miss, bypass, or error).
	Computes int64
	// Bypassed is the subset of Computes short-circuited by the
	// governor's BYPASS verdict (locally cached or fresh).
	Bypassed int64
	// Errors is the subset of Computes taken because the remote tier
	// failed; the caller still got a value, computed locally.
	Errors int64
}

// TieredMemo layers a process-local MemoTable (L1) over a remote
// crcserve segment (L2): an L1 hit costs a hash probe, an L2 hit costs
// one round trip, and only a fleet-wide first encounter of a key pays
// the computation — a warm fleet shares every distinct result. The
// remote tier degrades gracefully: on server errors, and for segments
// the admission governor has bypassed (a round trip is only worth
// paying while R·C − O > 0 holds on the server's live numbers), Do
// simply computes locally.
type TieredMemo struct {
	l1    *MemoTable
	seg   remoteCache
	stats [6]atomic.Int64 // mirrors TieredStats field order

	// flight deduplicates concurrent misses on one key: the leader does
	// the remote GET and, on a fleet-wide miss, the compute; everyone
	// else waits for the leader's value — one round trip and one
	// computation per in-flight key, not one per caller.
	flight flight.Group[string, uint64]
}

// Remote is the shared L2 a tier is built over: a *Client (one crcserve
// node) or a *Pool (a consistent-hash fleet: keys route by hash, PUTs
// replicate, and reads fail over to the next ring node). Its one method
// is unexported, so no other type satisfies it.
type Remote interface {
	remoteSegment(name string, cfg SegmentConfig) (remoteCache, error)
}

// remoteCache is the L2 surface TieredMemo drives: a single crcserve
// segment (RemoteSegment) or a consistent-hash fleet of them
// (PoolSegment). Both degrade to errors rather than blocking, which is
// all Do's never-fails contract needs.
type remoteCache interface {
	Get(key []byte) ([]uint64, GetStatus, error)
	GetTraced(key []byte, tr obs.TraceCtx) ([]uint64, GetStatus, error)
	Put(key []byte, vals []uint64, cost time.Duration) error
	PutTraced(key []byte, vals []uint64, cost time.Duration, tr obs.TraceCtx) error
	Stats() (RemoteStats, error)
	Flush() error
}

const (
	tsCalls = iota
	tsL1Hits
	tsL2Hits
	tsComputes
	tsBypassed
	tsErrors
)

// NewTieredMemo registers the segment on r, a single server or a fleet,
// and builds the two-level table.
func NewTieredMemo(r Remote, cfg TieredMemoConfig) (*TieredMemo, error) {
	remote := cfg.Remote
	remote.OutWords = 1
	seg, err := r.remoteSegment(cfg.Name, remote)
	if err != nil {
		return nil, err
	}
	return &TieredMemo{
		l1: NewMemoTable(MemoTableConfig{
			Name:    cfg.Name + "/l1",
			Entries: cfg.L1Entries,
			LRU:     cfg.L1LRU,
			Shards:  cfg.L1Shards,
		}),
		seg: seg,
	}, nil
}

// Do returns the value for key, from L1, then L2, then by running
// compute. A computed value is recorded in both tiers together with its
// measured cost C (unless the governor has bypassed the segment). Do
// never fails: remote errors are counted and absorbed by computing
// locally. Safe for concurrent use; concurrent misses on one key
// singleflight — one remote GET and at most one compute run however
// many callers pile onto the key — and the followers count as L1 hits,
// since they are served from another caller's in-flight work.
func (t *TieredMemo) Do(key []byte, compute func() uint64) uint64 {
	// The root span of the request's trace. With tracing disabled (the
	// default) StartRoot is one atomic load returning an inert zero Span
	// and every method on it no-ops — the L1-hit path stays 0 allocs/op
	// (pinned by TestTieredMemoL1HitZeroAlloc).
	root := obs.StartRoot("tiered.do")
	t.stats[tsCalls].Add(1)
	if v, ok := t.l1.Lookup(key); ok {
		t.stats[tsL1Hits].Add(1)
		root.Outcome("l1_hit")
		root.End()
		return v
	}

	v, shared := t.flight.Do(string(key), func() uint64 { return t.doMiss(key, compute, &root) })
	if shared {
		t.stats[tsL1Hits].Add(1)
		root.Outcome("coalesced")
	}
	root.End()
	return v
}

// doMiss is the leader's slow path: L2 probe, then compute, recording
// the result in both tiers. root is the request's trace span: the L2
// probe and PUT stitch into it across the wire, the compute becomes a
// child span, and the root's outcome records which level served the
// request.
func (t *TieredMemo) doMiss(key []byte, compute func() uint64, root *obs.Span) uint64 {
	vals, status, err := t.seg.GetTraced(key, root.Context())
	switch {
	case err == nil && status == Hit && len(vals) > 0:
		t.stats[tsL2Hits].Add(1)
		t.l1.Store(key, vals[0])
		root.Outcome("l2_hit")
		return vals[0]
	case err != nil:
		t.stats[tsErrors].Add(1)
		root.Outcome("l2_err")
	case status == Bypass:
		t.stats[tsBypassed].Add(1)
		root.Outcome("bypass")
	default:
		root.Outcome("compute")
	}

	t.stats[tsComputes].Add(1)
	csp := obs.StartSpan(root.Context(), "compute")
	start := time.Now()
	v := compute()
	cost := time.Since(start)
	csp.End()
	t.l1.Store(key, v)
	if err == nil && status == Miss {
		// Report C with the PUT: the server's governor weighs exactly
		// this cost against the overhead O of serving the segment.
		if perr := t.seg.PutTraced(key, []uint64{v}, cost, root.Context()); perr != nil {
			t.stats[tsErrors].Add(1)
		}
	}
	return v
}

// Stats returns a snapshot of the tier counters.
func (t *TieredMemo) Stats() TieredStats {
	return TieredStats{
		Calls:    t.stats[tsCalls].Load(),
		L1Hits:   t.stats[tsL1Hits].Load(),
		L2Hits:   t.stats[tsL2Hits].Load(),
		Computes: t.stats[tsComputes].Load(),
		Bypassed: t.stats[tsBypassed].Load(),
		Errors:   t.stats[tsErrors].Load(),
	}
}

// L1Stats returns the local table's counters.
func (t *TieredMemo) L1Stats() MemoStats { return t.l1.Stats() }

// RemoteStats fetches the shared segment's live server-side counters.
func (t *TieredMemo) RemoteStats() (RemoteStats, error) { return t.seg.Stats() }

// Reset drops both tiers: the local table is emptied in place and the
// server-side segment is flushed (which also readmits it).
func (t *TieredMemo) Reset() error {
	t.l1.Reset()
	for i := range t.stats {
		t.stats[i].Store(0)
	}
	return t.seg.Flush()
}
