package compreuse

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"compreuse/internal/obs"
)

// Fleet metrics. The aggregate series are registered at init; the
// per-node series (up/down gauge, failover counter) are registered
// when DialPool first sees the address — registration is idempotent by
// name, so pools sharing an address set share the series.
var (
	mPoolFailovers = obs.NewCounter("crc_pool_failovers_total",
		"fleet reads or writes re-routed away from a failed node")
	mPoolReplicaDrops = obs.NewCounter("crc_pool_replica_drops_total",
		"fire-and-forget replica writes dropped because the queue was full")
	mPoolNodesDown = obs.NewGauge("crc_pool_nodes_down",
		"fleet nodes currently marked down")
	mPoolRedials = obs.NewCounter("crc_pool_redial_attempts_total",
		"background redial attempts against nodes marked down")
)

func nodeUpGauge(addr string) *obs.Gauge {
	return obs.NewGauge(fmt.Sprintf("crc_pool_node_up{node=%q}", addr),
		"1 while the fleet node is dialed and serving, 0 while marked down")
}

func nodeFailoverCounter(addr string) *obs.Counter {
	return obs.NewCounter(fmt.Sprintf("crc_pool_node_failovers_total{node=%q}", addr),
		"calls re-routed away from this node because it errored or was down")
}

// PoolConfig configures a client for a fleet of crcserve nodes.
type PoolConfig struct {
	// Addrs are the node addresses (TCP host:port or unix:///path), one
	// per crcserve instance. Order is irrelevant: placement comes from
	// the consistent-hash ring, so every Pool dialing the same set
	// routes identically.
	Addrs []string
	// Replicas is the number of copies of each record, primary included.
	// PUTs go synchronously to the primary and fire-and-forget to the
	// next Replicas-1 ring nodes; GETs fall back along the same walk.
	// 0 means 2; clamped to len(Addrs).
	Replicas int
	// VirtualNodes is the number of ring points per node; more points
	// smooth the key distribution at the cost of a larger ring. 0 means
	// DefaultVirtualNodes.
	VirtualNodes int
	// ReplicaQueue bounds the fire-and-forget replica write queue;
	// when it is full further replica writes are dropped (and counted),
	// never blocked on. 0 means DefaultReplicaQueue.
	ReplicaQueue int
	// RedialEvery is the retry period for re-dialing a node that was
	// marked down. 0 means DefaultRedialEvery.
	RedialEvery time.Duration

	// Conns, MaxInflight and DialTimeout configure each node's
	// underlying Client as in ClientConfig.
	Conns       int
	MaxInflight int
	DialTimeout time.Duration
}

// Pool defaults.
const (
	DefaultVirtualNodes = 64
	DefaultReplicaQueue = 1024
	DefaultRedialEvery  = time.Second
	replicaWorkers      = 4
)

func (c PoolConfig) replicas() int {
	r := c.Replicas
	if r <= 0 {
		r = 2
	}
	if r > len(c.Addrs) {
		r = len(c.Addrs)
	}
	return r
}

func (c PoolConfig) virtualNodes() int {
	if c.VirtualNodes <= 0 {
		return DefaultVirtualNodes
	}
	return c.VirtualNodes
}

func (c PoolConfig) replicaQueue() int {
	if c.ReplicaQueue <= 0 {
		return DefaultReplicaQueue
	}
	return c.ReplicaQueue
}

func (c PoolConfig) redialEvery() time.Duration {
	if c.RedialEvery <= 0 {
		return DefaultRedialEvery
	}
	return c.RedialEvery
}

func (c PoolConfig) clientConfig(addr string) ClientConfig {
	return ClientConfig{Addr: addr, Conns: c.Conns,
		MaxInflight: c.MaxInflight, DialTimeout: c.DialTimeout}
}

// ErrNodeDown is the per-node fast-fail error while a fleet node is
// marked down and being re-dialed; callers of Pool never see it unless
// every ring node for a key is down at once.
var ErrNodeDown = errors.New("compreuse: fleet node is down")

// ErrPoolClosed is returned by calls on a closed Pool.
var ErrPoolClosed = errors.New("compreuse: fleet pool closed")

// Pool is the fleet-tier client: one consistent-hash ring over N
// crcserve nodes. Every (segment, key) pair maps to a primary node and
// an ordered list of fallbacks (the next distinct nodes on the ring),
// so all workers dialing the same address set agree on placement
// without coordination. Reads go to the primary and fall back along
// the ring on transport errors; writes go synchronously to the first
// live ring node and fire-and-forget to the next Replicas-1, so a node
// crash loses no acknowledged record that had a replica. A node that
// fails is marked down — subsequent calls skip it without a network
// timeout — and re-dialed in the background until it comes back (a
// restarted crcserve answers warm when it was started from a
// snapshot; see cmd/crcserve -snapshot).
type Pool struct {
	cfg  PoolConfig
	node []*poolNode
	ring []ringPoint // sorted by hash

	repCh   chan repWrite
	closed  atomic.Bool
	closeCh chan struct{}
	wg      sync.WaitGroup

	segMu sync.Mutex
	segs  map[string]*PoolSegment
}

// ringPoint is one virtual node on the hash ring.
type ringPoint struct {
	hash uint64
	node int
}

// poolNode is one fleet member: its address, its live client (nil while
// down), and its failure counters.
type poolNode struct {
	addr string
	ccfg ClientConfig

	mu sync.Mutex
	c  *Client

	down      atomic.Bool
	redialing atomic.Bool
	// failovers counts calls re-routed away from this node because it
	// errored or was down.
	failovers atomic.Int64

	// up mirrors the node's liveness into the metrics registry; fo is
	// the per-node failover series. Liveness flips are cold-path, so up
	// is kept current unconditionally; fo increments are gated on
	// obs.On() like every other hot-path metric.
	up *obs.Gauge
	fo *obs.Counter
}

// repWrite is one queued fire-and-forget replica record.
type repWrite struct {
	node *poolNode
	seg  *PoolSegment
	key  []byte
	vals []uint64
	cost time.Duration
}

// DialPool connects to every node of a crcserve fleet. Like DialCache
// it dials eagerly — a misconfigured address fails at startup — but a
// node that dies later only degrades the pool (failover + background
// redial), it never fails it.
func DialPool(cfg PoolConfig) (*Pool, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("compreuse: PoolConfig.Addrs is empty")
	}
	p := &Pool{
		cfg:     cfg,
		repCh:   make(chan repWrite, cfg.replicaQueue()),
		closeCh: make(chan struct{}),
		segs:    map[string]*PoolSegment{},
	}
	for i, addr := range cfg.Addrs {
		n := &poolNode{addr: addr, ccfg: cfg.clientConfig(addr),
			up: nodeUpGauge(addr), fo: nodeFailoverCounter(addr)}
		c, err := DialCache(n.ccfg)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("dial fleet node %q: %w", addr, err)
		}
		n.c = c
		n.up.Set(1)
		p.node = append(p.node, n)
		for v := 0; v < cfg.virtualNodes(); v++ {
			p.ring = append(p.ring, ringPoint{hash: ringHash(addr, v), node: i})
		}
	}
	sort.Slice(p.ring, func(i, j int) bool { return p.ring[i].hash < p.ring[j].hash })
	for i := 0; i < replicaWorkers; i++ {
		p.wg.Add(1)
		go p.replicaLoop()
	}
	return p, nil
}

// Close tears down every node client and stops the background workers.
func (p *Pool) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	close(p.closeCh)
	for _, n := range p.node {
		n.mu.Lock()
		if n.c != nil {
			n.c.Close()
			n.c = nil
		}
		n.mu.Unlock()
	}
	p.wg.Wait()
	return nil
}

// mix64 is the murmur3 finalizer: full avalanche over 64 bits. FNV-1a
// alone is not enough here — on short inputs that differ only in their
// trailing bytes (sequential keys, a node's vnode counter) its high
// bits barely change, so raw FNV values cluster in bands narrower than
// a ring arc and the "ring" degenerates to one node owning every key.
// The finalizer spreads those bands over the whole 64-bit circle.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// ringHash places one virtual node on the ring.
func ringHash(addr string, vnode int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(addr))
	h.Write([]byte{'#'})
	h.Write([]byte(strconv.Itoa(vnode)))
	return mix64(h.Sum64())
}

// keyHash is the routing hash over (segment name, key bytes). The
// segment name participates so two segments' identical keys spread to
// different primaries, and the zero byte separates the fields so
// ("ab","c") and ("a","bc") cannot collide structurally.
func keyHash(seg string, key []byte) uint64 {
	h := fnv.New64a()
	h.Write([]byte(seg))
	h.Write([]byte{0})
	h.Write(key)
	return mix64(h.Sum64())
}

// route walks the ring clockwise from h and returns the first
// maxNodes distinct node indices: the primary first, then the
// replica/fallback order. The walk is deterministic in the address
// set, so every pool member routes identically.
func (p *Pool) route(h uint64, maxNodes int, dst []int) []int {
	if maxNodes > len(p.node) {
		maxNodes = len(p.node)
	}
	start := sort.Search(len(p.ring), func(i int) bool { return p.ring[i].hash >= h })
	seen := 0
	for i := 0; i < len(p.ring) && seen < maxNodes; i++ {
		pt := p.ring[(start+i)%len(p.ring)]
		dup := false
		for _, d := range dst {
			if d == pt.node {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, pt.node)
			seen++
		}
	}
	return dst
}

// client returns the node's live client, or ErrNodeDown immediately —
// a down node must cost a ring hop, not a dial timeout. The error is
// wrapped as a transport failure so callers fall back along the ring
// exactly as they would for a freshly dead socket.
func (n *poolNode) client() (*Client, error) {
	if n.down.Load() {
		return nil, &transportError{ErrNodeDown}
	}
	n.mu.Lock()
	c := n.c
	n.mu.Unlock()
	if c == nil {
		return nil, &transportError{ErrNodeDown}
	}
	return c, nil
}

// segment resolves the node's handle for a named segment (registering
// it on the node if this client has not yet).
func (n *poolNode) segment(name string, cfg SegmentConfig) (*RemoteSegment, error) {
	c, err := n.client()
	if err != nil {
		return nil, err
	}
	return c.Segment(name, cfg)
}

// markDown flags the node dead after a transport error, closes its
// client so every in-flight and future call on it fails fast, and
// starts the background redial if one is not already running.
func (p *Pool) markDown(n *poolNode) {
	if p.closed.Load() {
		return
	}
	n.mu.Lock()
	if n.c != nil {
		n.c.Close()
		n.c = nil
	}
	first := !n.down.Swap(true)
	n.mu.Unlock()
	if first {
		// Liveness flips are rare; keep the gauges truthful even while
		// instrumentation is globally off, so enabling obs later shows
		// the fleet's actual state instead of a stale zero.
		n.up.Set(0)
		mPoolNodesDown.Add(1)
	}
	if n.redialing.CompareAndSwap(false, true) {
		p.wg.Add(1)
		go p.redial(n)
	}
}

// redial retries the node until it answers again, then swaps the fresh
// client in. Segment handles re-register lazily on first use (the new
// Client's HELLO), so a node restarted from a snapshot resumes serving
// its warm table without any pool-level re-registration pass.
func (p *Pool) redial(n *poolNode) {
	defer p.wg.Done()
	t := time.NewTicker(p.cfg.redialEvery())
	defer t.Stop()
	for {
		select {
		case <-p.closeCh:
			n.redialing.Store(false)
			return
		case <-t.C:
		}
		mPoolRedials.Inc()
		c, err := DialCache(n.ccfg)
		if err != nil {
			continue
		}
		n.mu.Lock()
		n.c = c
		n.mu.Unlock()
		n.down.Store(false)
		n.redialing.Store(false)
		n.up.Set(1)
		mPoolNodesDown.Add(-1)
		return
	}
}

// replicaLoop drains the fire-and-forget replica queue. Errors are
// absorbed: a replica write is a durability bet, not an acknowledged
// record, and the primary copy already succeeded.
func (p *Pool) replicaLoop() {
	defer p.wg.Done()
	for {
		select {
		case <-p.closeCh:
			return
		case w := <-p.repCh:
			seg, err := w.node.segment(w.seg.name, w.seg.cfg)
			if err == nil {
				err = seg.Put(w.key, w.vals, w.cost)
			}
			if err != nil && isTransportErr(err) {
				p.markDown(w.node)
			}
		}
	}
}

// Segment registers a named segment on the fleet and returns its
// routed handle. Registration happens lazily per node (each node's
// HELLO goes out on first use), so a down node does not block Segment.
func (p *Pool) Segment(name string, cfg SegmentConfig) (*PoolSegment, error) {
	if p.closed.Load() {
		return nil, ErrPoolClosed
	}
	p.segMu.Lock()
	if s, ok := p.segs[name]; ok {
		p.segMu.Unlock()
		return s, nil
	}
	p.segMu.Unlock()

	if cfg.OutWords <= 0 {
		cfg.OutWords = 1
	}
	s := &PoolSegment{p: p, name: name, cfg: cfg}
	// Eagerly register on every live node so geometry is fixed
	// fleet-wide before traffic; a down node registers on redial.
	var lastErr error
	live := 0
	for _, n := range p.node {
		if _, err := n.segment(name, cfg); err != nil {
			lastErr = err
			if isTransportErr(err) {
				p.markDown(n)
			}
			continue
		}
		live++
	}
	if live == 0 {
		return nil, fmt.Errorf("register segment %q: no live fleet node: %w", name, lastErr)
	}
	p.segMu.Lock()
	if prior, ok := p.segs[name]; ok {
		s = prior
	} else {
		p.segs[name] = s
	}
	p.segMu.Unlock()
	return s, nil
}

func (p *Pool) remoteSegment(name string, cfg SegmentConfig) (remoteCache, error) {
	s, err := p.Segment(name, cfg)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// PoolSegment is the fleet-routed handle to one named segment: the same
// Get/Put/Stats/Flush surface as RemoteSegment, with consistent-hash
// routing, replicated writes and ring-fallback reads behind it.
type PoolSegment struct {
	p    *Pool
	name string
	cfg  SegmentConfig

	// replicaDrops counts fire-and-forget replica writes dropped
	// because the queue was full.
	replicaDrops atomic.Int64
}

// Get probes the fleet: the key's primary first, then — on transport
// errors only, a governor BYPASS or a plain miss is an answer — each
// fallback node along the ring. A dead primary therefore costs one
// failed round trip at most (nothing at all once it is marked down),
// and the replicas answer with the same data the PUT fanned out.
func (s *PoolSegment) Get(key []byte) ([]uint64, GetStatus, error) {
	return s.GetTraced(key, obs.TraceCtx{})
}

// GetTraced is Get with a parent trace context: a sampled request
// records a "pool.get" span whose hops annotation counts the failover
// walk, and the per-node probe (an "rpc.get" child) carries the trace
// id to whichever node finally answered.
func (s *PoolSegment) GetTraced(key []byte, tr obs.TraceCtx) ([]uint64, GetStatus, error) {
	sp := obs.StartSpan(tr, "pool.get")
	var scratch [8]int
	nodes := s.p.route(keyHash(s.name, key), len(s.p.node), scratch[:0])
	var lastErr error
	for i, ni := range nodes {
		n := s.p.node[ni]
		seg, err := n.segment(s.name, s.cfg)
		if err == nil {
			var vals []uint64
			var status GetStatus
			vals, status, err = seg.GetTraced(key, sp.Context())
			if err == nil {
				if i > 0 {
					s.countFailover(nodes[:i])
				}
				sp.Annotate("hops", int64(i))
				switch status {
				case Hit:
					sp.Outcome("hit")
				case Bypass:
					sp.Outcome("bypass")
				default:
					sp.Outcome("miss")
				}
				sp.End()
				return vals, status, nil
			}
		}
		lastErr = err
		if !isTransportErr(err) {
			// The node answered: a protocol error is this request's
			// problem, not the node's. Surface it.
			sp.Annotate("hops", int64(i))
			sp.Outcome("proto_err")
			sp.End()
			return nil, Miss, err
		}
		s.p.markDown(n)
	}
	s.countFailover(nodes)
	sp.Annotate("hops", int64(len(nodes)))
	sp.Outcome("all_down")
	sp.End()
	return nil, Miss, lastErr
}

// Put records the computed outputs on the fleet: synchronously on the
// first live ring node (normally the primary; writes re-route past a
// dead one), fire-and-forget on the next Replicas-1 — so a PUT costs
// one round trip like the single-node client, and losing any one node
// still leaves a copy for its ring successor to serve.
func (s *PoolSegment) Put(key []byte, vals []uint64, cost time.Duration) error {
	return s.PutTraced(key, vals, cost, obs.TraceCtx{})
}

// PutTraced is Put with a parent trace context: a sampled request
// records a "pool.put" span annotated with the failover hops to the
// synchronous copy, the replicas queued, and any dropped on a full
// queue; the synchronous write carries the trace id to its node.
func (s *PoolSegment) PutTraced(key []byte, vals []uint64, cost time.Duration, tr obs.TraceCtx) error {
	sp := obs.StartSpan(tr, "pool.put")
	var scratch [8]int
	nodes := s.p.route(keyHash(s.name, key), len(s.p.node), scratch[:0])
	var lastErr error
	primary := -1
	for i, ni := range nodes {
		n := s.p.node[ni]
		seg, err := n.segment(s.name, s.cfg)
		if err == nil {
			err = seg.PutTraced(key, vals, cost, sp.Context())
		}
		if err == nil {
			primary = i
			break
		}
		lastErr = err
		if !isTransportErr(err) {
			sp.Annotate("hops", int64(i))
			sp.Outcome("proto_err")
			sp.End()
			return err
		}
		s.p.markDown(n)
	}
	if primary < 0 {
		s.countFailover(nodes)
		sp.Annotate("hops", int64(len(nodes)))
		sp.Outcome("all_down")
		sp.End()
		return lastErr
	}
	if primary > 0 {
		s.countFailover(nodes[:primary])
	}
	// Replicate to the remaining ring successors of the synchronous
	// copy, up to Replicas total. Fire-and-forget: the queue is bounded
	// and never blocks the caller; an overflowing fleet drops replicas
	// (counted) rather than stalling the hot path.
	queued, dropped := int64(0), int64(0)
	for _, ni := range remaining(nodes, primary, s.p.cfg.replicas()-1) {
		w := repWrite{
			node: s.p.node[ni],
			seg:  s,
			key:  append([]byte(nil), key...),
			vals: append([]uint64(nil), vals...),
			cost: cost,
		}
		select {
		case s.p.repCh <- w:
			queued++
		default:
			dropped++
			s.replicaDrops.Add(1)
			if obs.On() {
				mPoolReplicaDrops.Inc()
			}
		}
	}
	sp.Annotate("hops", int64(primary))
	sp.Annotate("replicas", queued)
	if dropped > 0 {
		sp.Annotate("replica_drops", dropped)
	}
	sp.Outcome("ok")
	sp.End()
	return nil
}

// remaining returns up to count node indices after position primary.
func remaining(nodes []int, primary, count int) []int {
	rest := nodes[primary+1:]
	if count < 0 {
		count = 0
	}
	if count > len(rest) {
		count = len(rest)
	}
	return rest[:count]
}

// countFailover charges one failover to each node that was skipped.
func (s *PoolSegment) countFailover(skipped []int) {
	for _, ni := range skipped {
		n := s.p.node[ni]
		n.failovers.Add(1)
		if obs.On() {
			mPoolFailovers.Inc()
			n.fo.Inc()
		}
	}
}

// Flush empties the segment on every live node.
func (s *PoolSegment) Flush() error {
	var lastErr error
	for _, n := range s.p.node {
		seg, err := n.segment(s.name, s.cfg)
		if err == nil {
			err = seg.Flush()
		}
		if err != nil {
			lastErr = err
			if isTransportErr(err) {
				s.p.markDown(n)
			}
		}
	}
	return lastErr
}

// Stats aggregates the segment's counters across live nodes: counter
// fields sum, the governor estimates R, C and O are probe-weighted
// averages, and BypassedNow is true when any node's governor has the
// segment bypassed. Down nodes contribute nothing (their state is
// whatever their snapshot will restore).
func (s *PoolSegment) Stats() (RemoteStats, error) {
	var sum RemoteStats
	var rWeighted, cWeighted, oWeighted float64
	var lastErr error
	live := 0
	for _, n := range s.p.node {
		seg, err := n.segment(s.name, s.cfg)
		if err != nil {
			lastErr = err
			continue
		}
		st, err := seg.Stats()
		if err != nil {
			lastErr = err
			if isTransportErr(err) {
				s.p.markDown(n)
			}
			continue
		}
		live++
		sum.Probes += st.Probes
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.Records += st.Records
		sum.Distinct += st.Distinct
		sum.Resident += st.Resident
		sum.Bypassed += st.Bypassed
		sum.BypassedNow = sum.BypassedNow || st.BypassedNow
		w := float64(st.Probes)
		if w == 0 {
			w = 1
		}
		rWeighted += w * st.R
		cWeighted += w * float64(st.C)
		oWeighted += w * float64(st.O)
	}
	if live == 0 {
		return RemoteStats{}, lastErr
	}
	totalW := float64(sum.Probes)
	if totalW == 0 {
		totalW = float64(live)
	}
	sum.R = rWeighted / totalW
	sum.C = time.Duration(cWeighted / totalW)
	sum.O = time.Duration(oWeighted / totalW)
	return sum, nil
}

// PoolNodeStats is one fleet member's view of a segment plus the
// pool-side failure counters for that node.
type PoolNodeStats struct {
	// Addr is the node's address.
	Addr string
	// Down reports whether the node is currently marked down.
	Down bool
	// Failovers counts calls re-routed away from this node.
	Failovers int64
	// Stats is the node's server-side view of the segment; zero while
	// the node is down or unreachable.
	Stats RemoteStats
}

// HitRate returns the node's segment hit rate, or 0 when never probed.
func (s PoolNodeStats) HitRate() float64 {
	if s.Stats.Probes == 0 {
		return 0
	}
	return float64(s.Stats.Hits) / float64(s.Stats.Probes)
}

// NodeStats returns the per-node segment statistics in Addrs order —
// the fleet loadgen's per-node hit-rate and failover report.
func (s *PoolSegment) NodeStats() []PoolNodeStats {
	out := make([]PoolNodeStats, len(s.p.node))
	for i, n := range s.p.node {
		out[i] = PoolNodeStats{
			Addr:      n.addr,
			Down:      n.down.Load(),
			Failovers: n.failovers.Load(),
		}
		if seg, err := n.segment(s.name, s.cfg); err == nil {
			if st, err := seg.Stats(); err == nil {
				out[i].Stats = st
			}
		}
	}
	return out
}

// ReplicaDrops returns how many fire-and-forget replica writes were
// dropped on the floor because the replica queue was full.
func (s *PoolSegment) ReplicaDrops() int64 { return s.replicaDrops.Load() }

// Nodes returns the fleet addresses in configuration order.
func (p *Pool) Nodes() []string {
	out := make([]string, len(p.node))
	for i, n := range p.node {
		out[i] = n.addr
	}
	return out
}

// DownNodes returns the addresses currently marked down.
func (p *Pool) DownNodes() []string {
	var out []string
	for _, n := range p.node {
		if n.down.Load() {
			out = append(out, n.addr)
		}
	}
	return out
}
