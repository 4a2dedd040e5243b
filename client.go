package compreuse

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"compreuse/internal/flight"
	"compreuse/internal/obs"
	"compreuse/internal/wire"
)

// Client metrics (live when obs is enabled, like everything else).
var (
	mRemoteRTT = obs.NewHistogram("crc_remote_rtt_ns",
		"remote reuse-cache round-trip latency in nanoseconds", obs.LatencyBuckets)
	mRemoteCalls = obs.NewCounter("crc_remote_calls_total",
		"requests sent to the remote reuse cache")
	mRemoteErrors = obs.NewCounter("crc_remote_errors_total",
		"remote reuse-cache requests that failed")
)

// ClientConfig configures a connection to a crcserve instance.
type ClientConfig struct {
	// Addr is the server's address: a TCP host:port, e.g. "cache:8345",
	// or a unix-domain socket path with the "unix://" scheme, e.g.
	// "unix:///run/crcserve.sock". The unix transport skips the loopback
	// TCP stack for co-located fleets, shrinking the round-trip share of
	// the lookup overhead O.
	Addr string
	// Conns is the connection-pool size; requests round-robin across
	// it. 0 means 2.
	Conns int
	// MaxInflight bounds the pipelined requests per pooled connection;
	// further callers block. 0 means 128.
	MaxInflight int
	// DialTimeout bounds connection establishment. 0 means 5s.
	DialTimeout time.Duration
}

func (c ClientConfig) conns() int {
	if c.Conns <= 0 {
		return 2
	}
	return c.Conns
}

func (c ClientConfig) maxInflight() int {
	if c.MaxInflight <= 0 {
		return 128
	}
	return c.MaxInflight
}

func (c ClientConfig) dialTimeout() time.Duration {
	if c.DialTimeout <= 0 {
		return 5 * time.Second
	}
	return c.DialTimeout
}

// Client talks to a remote reuse-cache server (cmd/crcserve) over the
// internal/wire protocol. It is safe for concurrent use: requests are
// pipelined over a small pool of connections (many callers share one
// in-flight window per connection, matched back by sequence number),
// concurrent GETs for the same key are deduplicated in flight
// (singleflight), and every response round-trip feeds a smoothed RTT
// estimate that is reported to the server — the server folds it into
// the lookup overhead O of its formula-3 admission governor.
type Client struct {
	cfg   ClientConfig
	conns []*clientConn
	next  atomic.Uint64

	// rttNS is the smoothed round-trip estimate, EWMA weight 1/8.
	rttNS atomic.Int64

	segMu sync.Mutex
	segs  map[string]*RemoteSegment

	flight flight.Group[sfKey, getResult]

	closed atomic.Bool
}

// sfKey identifies one in-flight GET: a key within a segment.
type sfKey struct {
	seg uint32
	key string
}

// getResult is one probe's outcome.
type getResult struct {
	vals   []uint64
	status GetStatus
	err    error
}

// DialCache connects to a crcserve instance, establishing the whole
// connection pool eagerly so a misconfigured address fails at startup,
// not mid-traffic.
func DialCache(cfg ClientConfig) (*Client, error) {
	if cfg.Addr == "" {
		return nil, errors.New("compreuse: ClientConfig.Addr is empty")
	}
	c := &Client{
		cfg:  cfg,
		segs: map[string]*RemoteSegment{},
	}
	for i := 0; i < cfg.conns(); i++ {
		cc, err := dialConn(cfg)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.conns = append(c.conns, cc)
	}
	return c, nil
}

// Close tears down the connection pool. In-flight calls fail with
// ErrClientClosed.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	for _, cc := range c.conns {
		cc.close(ErrClientClosed)
	}
	return nil
}

// ErrClientClosed is returned by calls on a closed Client.
var ErrClientClosed = errors.New("compreuse: reuse-cache client closed")

// transportError wraps a failure of the connection itself — a dead
// socket, a closed client, an encode/decode error — as opposed to a
// per-request protocol error (FlagErr) the server answered with. The
// fleet Pool uses the distinction to decide whether a node is down
// (fail over and redial) or merely rejected one request.
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// isTransportErr reports whether err (anywhere in its chain) is a
// connection-level failure rather than a server-answered protocol error.
func isTransportErr(err error) bool {
	var te *transportError
	return errors.As(err, &te)
}

// RTT returns the smoothed round-trip estimate to the server.
func (c *Client) RTT() time.Duration { return time.Duration(c.rttNS.Load()) }

// observeRTT folds one measured round-trip into the estimate, tagging
// the RTT histogram's exemplar with the request's trace id (0 =
// untraced) so a p99 spike points at a concrete trace. The
// load/compute/store is a CAS loop: a plain store would silently drop
// concurrent observations, and this estimate is what the server charges
// as the network half of overhead O — a lossy EWMA would bias the
// governor's formula-3 arithmetic under parallel callers.
func (c *Client) observeRTT(d time.Duration, tid uint64) {
	ns := d.Nanoseconds()
	if obs.On() {
		mRemoteRTT.ObserveTraced(ns, tid)
	}
	for {
		old := c.rttNS.Load()
		next := ns
		if old != 0 {
			next = old + (ns-old)/8
		}
		if c.rttNS.CompareAndSwap(old, next) {
			return
		}
	}
}

// call sends one request over a pooled connection and waits for its
// response frame.
func (c *Client) call(req *wire.Frame) (wire.Frame, error) {
	if c.closed.Load() {
		return wire.Frame{}, &transportError{ErrClientClosed}
	}
	if obs.On() {
		mRemoteCalls.Inc()
	}
	cc := c.conns[c.next.Add(1)%uint64(len(c.conns))]
	start := time.Now()
	resp, err := cc.roundTrip(req)
	if err != nil {
		if obs.On() {
			mRemoteErrors.Inc()
		}
		return wire.Frame{}, &transportError{err}
	}
	c.observeRTT(time.Since(start), req.TraceID)
	if e := resp.Err(); e != nil {
		return wire.Frame{}, e
	}
	return resp, nil
}

// SegmentConfig describes the shared table a segment wants on the
// server. The first client to register a name fixes the geometry;
// later registrations share the existing table as-is.
type SegmentConfig struct {
	// Entries bounds the server-side table (0 = unbounded).
	Entries int
	// LRU selects associative LRU replacement over direct addressing.
	LRU bool
	// OutWords is the output width in 64-bit words (0 = 1).
	OutWords int
}

// RemoteSegment is a handle to one named segment's shared table.
type RemoteSegment struct {
	c        *Client
	id       uint32
	name     string
	outWords int
	// bypassed caches the server's last admission verdict so a
	// bypassed segment does not pay a round trip per call; every
	// bypassRecheck-th Get goes to the server anyway to notice
	// readmission.
	bypassed atomic.Bool
	sinceByp atomic.Int64
	l2Hits   atomic.Int64
	l2Misses atomic.Int64
	l2Bypass atomic.Int64

	// Batching state: Gets and Puts that arrive while a flight is in
	// progress queue up and leave as one MGET/MPUT frame when it
	// returns, so n concurrent misses cost one round trip instead of n.
	// getQ and putQ are independent (a GET flight does not delay PUTs).
	batchMu   sync.Mutex
	getQ      []*batchGet
	getFlying bool
	putQ      []*batchPut
	putFlying bool
}

// batchGet is one queued probe awaiting its (possibly shared) flight.
type batchGet struct {
	key  []byte
	tid  uint64 // trace id to stamp on the flight's frame (0 = untraced)
	done chan struct{}
	getResult
}

// batchPut is one queued record awaiting its flight.
type batchPut struct {
	key  []byte
	tid  uint64
	vals []uint64
	cost time.Duration
	done chan struct{}
	err  error
}

// batchTrace picks the trace id a coalesced flight's frame carries: the
// first traced member wins (one frame can only carry one id; the
// others' spans still record client-side, they just aren't stitched to
// this server execution).
func batchTraceGet(batch []*batchGet) uint64 {
	for _, bg := range batch {
		if bg.tid != 0 {
			return bg.tid
		}
	}
	return 0
}

func batchTracePut(batch []*batchPut) uint64 {
	for _, bp := range batch {
		if bp.tid != 0 {
			return bp.tid
		}
	}
	return 0
}

// bypassRecheck is how many locally short-circuited calls a bypassed
// segment makes between probes that check for readmission.
const bypassRecheck = 64

// Segment registers (or re-attaches to) a named segment on the server
// and returns its handle. Handles are cached per name.
func (c *Client) Segment(name string, cfg SegmentConfig) (*RemoteSegment, error) {
	c.segMu.Lock()
	if s, ok := c.segs[name]; ok {
		c.segMu.Unlock()
		return s, nil
	}
	c.segMu.Unlock()

	outWords := cfg.OutWords
	if outWords <= 0 {
		outWords = 1
	}
	req := &wire.Frame{Op: wire.OpHello, Name: name,
		Vals: []uint64{uint64(cfg.Entries), b2u(cfg.LRU), uint64(outWords)}}
	resp, err := c.call(req)
	if err != nil {
		return nil, fmt.Errorf("register segment %q: %w", name, err)
	}
	s := &RemoteSegment{c: c, id: resp.Seg, name: name, outWords: outWords}
	if len(resp.Vals) > 2 {
		s.outWords = int(resp.Vals[2])
	}
	c.segMu.Lock()
	if prior, ok := c.segs[name]; ok {
		s = prior
	} else {
		c.segs[name] = s
	}
	c.segMu.Unlock()
	return s, nil
}

func (c *Client) remoteSegment(name string, cfg SegmentConfig) (remoteCache, error) {
	s, err := c.Segment(name, cfg)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// GetStatus classifies a remote probe's outcome.
type GetStatus int

// Get outcomes.
const (
	// Miss: the shared table has no value; compute and Put.
	Miss GetStatus = iota
	// Hit: the value came from the shared table.
	Hit
	// Bypass: the admission governor turned the segment off; compute
	// locally and skip the Put.
	Bypass
)

func (s GetStatus) String() string {
	switch s {
	case Hit:
		return "hit"
	case Bypass:
		return "bypass"
	default:
		return "miss"
	}
}

// Get probes the shared table. Concurrent Gets for the same key are
// coalesced into one round trip; every caller receives the same
// result. The returned slice is owned by the caller.
func (s *RemoteSegment) Get(key []byte) ([]uint64, GetStatus, error) {
	return s.GetTraced(key, obs.TraceCtx{})
}

// GetTraced is Get with a parent trace context: when the parent is
// sampled, the probe records an "rpc.get" span and stamps the trace id
// onto the wire frame (wire.FlagTraced), so the serving node's span
// stitches into the same trace. An unsampled context costs two
// branches over plain Get.
func (s *RemoteSegment) GetTraced(key []byte, tr obs.TraceCtx) ([]uint64, GetStatus, error) {
	sp := obs.StartSpan(tr, "rpc.get")
	vals, status, err := s.doGet(key, sp.TraceID())
	switch {
	case err != nil:
		sp.Outcome("err")
	case status == Hit:
		sp.Outcome("hit")
	case status == Bypass:
		sp.Outcome("bypass")
	default:
		sp.Outcome("miss")
	}
	sp.End()
	return vals, status, err
}

// doGet is the trace-id-carrying body of Get.
func (s *RemoteSegment) doGet(key []byte, tid uint64) ([]uint64, GetStatus, error) {
	// Short-circuit a known-bypassed segment, revalidating every
	// bypassRecheck calls so readmission is noticed.
	if s.bypassed.Load() && s.sinceByp.Add(1)%bypassRecheck != 0 {
		s.l2Bypass.Add(1)
		return nil, Bypass, nil
	}

	r, shared := s.c.flight.Do(sfKey{seg: s.id, key: string(key)}, func() getResult { return s.get(key, tid) })
	if shared {
		// The caller owns the returned slice, so followers get copies.
		r.vals = append([]uint64(nil), r.vals...)
	}
	return r.vals, r.status, r.err
}

// get enqueues one probe for the flight loop and waits for its result.
// The caller blocks for the flight's round trip either way; what the
// queue buys is that every probe queued during an in-flight RTT leaves
// in a single MGET frame when it returns.
func (s *RemoteSegment) get(key []byte, tid uint64) getResult {
	bg := &batchGet{key: key, tid: tid, done: make(chan struct{})}
	s.batchMu.Lock()
	s.getQ = append(s.getQ, bg)
	if !s.getFlying {
		s.getFlying = true
		go s.getFlightLoop()
	}
	s.batchMu.Unlock()
	<-bg.done
	return bg.getResult
}

// getFlightLoop drains the GET queue, one frame per iteration, until a
// drain finds it empty. A batch of one flies as a plain GET (identical
// wire cost to the unbatched client); larger batches fly as one MGET.
func (s *RemoteSegment) getFlightLoop() {
	for {
		s.batchMu.Lock()
		batch := s.getQ
		s.getQ = nil
		if len(batch) == 0 {
			s.getFlying = false
			s.batchMu.Unlock()
			return
		}
		s.batchMu.Unlock()
		s.flyGets(batch)
	}
}

func (s *RemoteSegment) flyGets(batch []*batchGet) {
	defer func() {
		for _, bg := range batch {
			close(bg.done)
		}
	}()
	if len(batch) == 1 {
		bg := batch[0]
		bg.vals, bg.status, bg.err = s.getOne(bg.key, bg.tid)
		return
	}
	req := &wire.Frame{Op: wire.OpMGet, Seg: s.id,
		Cost: uint64(s.c.rttNS.Load()), Items: make([]wire.Item, len(batch))}
	req.SetTrace(batchTraceGet(batch))
	for i, bg := range batch {
		req.Items[i].Key = bg.key
	}
	resp, err := s.c.call(req)
	switch {
	case err != nil:
		for _, bg := range batch {
			bg.status, bg.err = Miss, err
		}
	case resp.Flags&wire.FlagBypass != 0:
		s.bypassed.Store(true)
		s.l2Bypass.Add(int64(len(batch)))
		for _, bg := range batch {
			bg.status = Bypass
		}
	case len(resp.Items) != len(batch):
		err := fmt.Errorf("mget %q: %d response items, want %d",
			s.name, len(resp.Items), len(batch))
		for _, bg := range batch {
			bg.status, bg.err = Miss, err
		}
	default:
		s.bypassed.Store(false)
		for i, bg := range batch {
			// The response frame is owned by this flight (the read loop
			// decodes each response into a fresh frame), so items hand
			// their Vals over without a copy.
			if it := &resp.Items[i]; it.Flags&wire.FlagHit != 0 {
				bg.status, bg.vals = Hit, it.Vals
				s.l2Hits.Add(1)
			} else {
				bg.status = Miss
				s.l2Misses.Add(1)
			}
		}
	}
}

// getOne is the single-probe wire exchange.
func (s *RemoteSegment) getOne(key []byte, tid uint64) ([]uint64, GetStatus, error) {
	req := &wire.Frame{Op: wire.OpGet, Seg: s.id, Key: key,
		Cost: uint64(s.c.rttNS.Load())}
	req.SetTrace(tid)
	resp, err := s.c.call(req)
	if err != nil {
		return nil, Miss, err
	}
	switch {
	case resp.Flags&wire.FlagBypass != 0:
		s.bypassed.Store(true)
		s.l2Bypass.Add(1)
		return nil, Bypass, nil
	case resp.Flags&wire.FlagHit != 0:
		s.bypassed.Store(false)
		s.l2Hits.Add(1)
		return resp.Vals, Hit, nil
	default:
		s.bypassed.Store(false)
		s.l2Misses.Add(1)
		return nil, Miss, nil
	}
}

// Put records the outputs computed for key, reporting the measured
// computation cost — the paper's C, which the server's governor weighs
// against its measured overhead O. Skip the Put after a Bypass status.
// Concurrent Puts queued while one is in flight leave as a single MPUT
// frame, each carrying its own cost.
func (s *RemoteSegment) Put(key []byte, vals []uint64, cost time.Duration) error {
	return s.PutTraced(key, vals, cost, obs.TraceCtx{})
}

// PutTraced is Put with a parent trace context; when sampled it records
// an "rpc.put" span and the frame carries the trace id (see GetTraced).
func (s *RemoteSegment) PutTraced(key []byte, vals []uint64, cost time.Duration, tr obs.TraceCtx) error {
	sp := obs.StartSpan(tr, "rpc.put")
	err := s.doPut(key, vals, cost, sp.TraceID())
	if err != nil {
		sp.Outcome("err")
	} else {
		sp.Outcome("ok")
	}
	sp.End()
	return err
}

func (s *RemoteSegment) doPut(key []byte, vals []uint64, cost time.Duration, tid uint64) error {
	// Short-circuit a known-bypassed segment with the same periodic
	// revalidation as Get: every bypassRecheck-th Put goes to the server
	// anyway. Without the probe, a segment whose traffic is Put-heavy
	// (or whose Gets dried up) would stay locally bypassed forever after
	// a server-side readmission and silently drop records.
	if s.bypassed.Load() && s.sinceByp.Add(1)%bypassRecheck != 0 {
		return nil // the governor said stop; don't pay the round trip
	}
	bp := &batchPut{key: key, tid: tid, vals: vals, cost: cost, done: make(chan struct{})}
	s.batchMu.Lock()
	s.putQ = append(s.putQ, bp)
	if !s.putFlying {
		s.putFlying = true
		go s.putFlightLoop()
	}
	s.batchMu.Unlock()
	<-bp.done
	return bp.err
}

// putFlightLoop mirrors getFlightLoop for records.
func (s *RemoteSegment) putFlightLoop() {
	for {
		s.batchMu.Lock()
		batch := s.putQ
		s.putQ = nil
		if len(batch) == 0 {
			s.putFlying = false
			s.batchMu.Unlock()
			return
		}
		s.batchMu.Unlock()
		s.flyPuts(batch)
	}
}

func (s *RemoteSegment) flyPuts(batch []*batchPut) {
	defer func() {
		for _, bp := range batch {
			close(bp.done)
		}
	}()
	var resp wire.Frame
	var err error
	if len(batch) == 1 {
		bp := batch[0]
		req := &wire.Frame{Op: wire.OpPut, Seg: s.id,
			Key: bp.key, Vals: bp.vals, Cost: uint64(bp.cost.Nanoseconds())}
		req.SetTrace(bp.tid)
		resp, err = s.c.call(req)
	} else {
		req := &wire.Frame{Op: wire.OpMPut, Seg: s.id,
			Items: make([]wire.Item, len(batch))}
		req.SetTrace(batchTracePut(batch))
		for i, bp := range batch {
			req.Items[i] = wire.Item{Key: bp.key, Vals: bp.vals,
				Cost: uint64(bp.cost.Nanoseconds())}
		}
		resp, err = s.c.call(req)
	}
	if err != nil {
		for _, bp := range batch {
			bp.err = err
		}
		return
	}
	// Track the verdict both ways: a non-bypass acknowledgement clears a
	// stale local bypass flag (the server has readmitted the segment), so
	// the Put path revalidates symmetrically with the Get path.
	s.bypassed.Store(resp.Flags&wire.FlagBypass != 0)
}

// Flush empties the segment's server-side table and resets its
// admission state.
func (s *RemoteSegment) Flush() error {
	_, err := s.c.call(&wire.Frame{Op: wire.OpFlush, Seg: s.id})
	if err == nil {
		s.bypassed.Store(false)
	}
	return err
}

// RemoteStats is a snapshot of a segment's server-side counters and
// governor estimates.
type RemoteStats struct {
	Probes, Hits, Misses, Records int64
	Distinct, Resident            int64
	Bypassed                      int64 // requests answered with FlagBypass
	BypassedNow                   bool  // current governor state
	R                             float64
	C, O                          time.Duration
}

// Stats fetches the segment's live server-side statistics.
func (s *RemoteSegment) Stats() (RemoteStats, error) {
	resp, err := s.c.call(&wire.Frame{Op: wire.OpStats, Seg: s.id})
	if err != nil {
		return RemoteStats{}, err
	}
	if len(resp.Vals) < wire.StatsLen {
		return RemoteStats{}, fmt.Errorf("stats: short response (%d vals)", len(resp.Vals))
	}
	v := resp.Vals
	return RemoteStats{
		Probes:      int64(v[wire.StatsProbes]),
		Hits:        int64(v[wire.StatsHits]),
		Misses:      int64(v[wire.StatsMisses]),
		Records:     int64(v[wire.StatsRecords]),
		Distinct:    int64(v[wire.StatsDistinct]),
		Resident:    int64(v[wire.StatsResident]),
		Bypassed:    int64(v[wire.StatsBypassed]),
		BypassedNow: v[wire.StatsState] != 0,
		R:           float64(v[wire.StatsR]) / 1e6,
		C:           time.Duration(v[wire.StatsC]),
		O:           time.Duration(v[wire.StatsO]),
	}, nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// clientConn is one pooled connection: a writer goroutine batching
// pipelined requests, a reader goroutine matching responses back to
// waiters by sequence number.
type clientConn struct {
	nc      net.Conn
	writeCh chan *wire.Frame
	// done is closed by close() and unblocks roundTrip senders parked on
	// writeCh: once writeLoop has exited there is no receiver, and a
	// sender that passed the cc.err check before the close would
	// otherwise block forever on a full writeCh.
	done chan struct{}

	mu      sync.Mutex
	pending map[uint64]chan wire.Frame
	err     error
	seq     uint64

	inflight chan struct{} // capacity = MaxInflight
}

// ParseAddr splits a crcserve address into the network and address
// arguments of net.Dial/net.Listen: "unix://<path>" selects a
// unix-domain socket at <path>, anything else is TCP.
func ParseAddr(addr string) (network, address string) {
	if path, ok := strings.CutPrefix(addr, "unix://"); ok {
		return "unix", path
	}
	return "tcp", addr
}

func dialConn(cfg ClientConfig) (*clientConn, error) {
	network, address := ParseAddr(cfg.Addr)
	nc, err := net.DialTimeout(network, address, cfg.dialTimeout())
	if err != nil {
		return nil, err
	}
	cc := &clientConn{
		nc:       nc,
		writeCh:  make(chan *wire.Frame, cfg.maxInflight()),
		done:     make(chan struct{}),
		pending:  map[uint64]chan wire.Frame{},
		inflight: make(chan struct{}, cfg.maxInflight()),
	}
	go cc.writeLoop()
	go cc.readLoop()
	return cc, nil
}

// roundTrip pipelines one request and blocks for its response.
func (cc *clientConn) roundTrip(req *wire.Frame) (wire.Frame, error) {
	cc.inflight <- struct{}{}
	defer func() { <-cc.inflight }()

	ch := make(chan wire.Frame, 1)
	cc.mu.Lock()
	if cc.err != nil {
		err := cc.err
		cc.mu.Unlock()
		return wire.Frame{}, err
	}
	cc.seq++
	req.Seq = cc.seq
	cc.pending[req.Seq] = ch
	cc.mu.Unlock()

	// The send races connection teardown: writeLoop exits on a write
	// error without draining writeCh, so a bare send here could park
	// forever with no receiver. close() closes cc.done, failing the send
	// fast with the stored teardown error.
	select {
	case cc.writeCh <- req:
	case <-cc.done:
		cc.mu.Lock()
		delete(cc.pending, req.Seq)
		err := cc.err
		cc.mu.Unlock()
		if err == nil {
			err = errors.New("compreuse: connection closed")
		}
		return wire.Frame{}, err
	}
	resp, ok := <-ch
	if !ok {
		cc.mu.Lock()
		err := cc.err
		cc.mu.Unlock()
		if err == nil {
			err = errors.New("compreuse: connection closed")
		}
		return wire.Frame{}, err
	}
	return resp, nil
}

// writeLoop encodes queued requests, coalescing everything already
// queued into one flush — the client half of pipelining.
func (cc *clientConn) writeLoop() {
	bw := bufio.NewWriterSize(cc.nc, 64<<10)
	w := wire.NewWriter(bw)
	for f := range cc.writeCh {
		if err := w.Write(f); err != nil {
			cc.close(err)
			return
		}
		for more := true; more; {
			select {
			case f2 := <-cc.writeCh:
				if err := w.Write(f2); err != nil {
					cc.close(err)
					return
				}
			default:
				more = false
			}
		}
		if err := bw.Flush(); err != nil {
			cc.close(err)
			return
		}
	}
}

// readLoop decodes responses and hands each to its waiter.
func (cc *clientConn) readLoop() {
	r := wire.NewReader(bufio.NewReaderSize(cc.nc, 64<<10))
	for {
		var f wire.Frame
		if err := r.Next(&f); err != nil {
			cc.close(err)
			return
		}
		cc.mu.Lock()
		ch, ok := cc.pending[f.Seq]
		delete(cc.pending, f.Seq)
		cc.mu.Unlock()
		if ok {
			ch <- f
		}
	}
}

// close fails every pending and future call with err: the stored error
// gates new round trips, closing each pending channel fails the waiters,
// and closing done unparks any sender blocked on writeCh.
func (cc *clientConn) close(err error) {
	cc.mu.Lock()
	if cc.err == nil {
		cc.err = err
		cc.nc.Close()
		close(cc.done)
		for seq, ch := range cc.pending {
			close(ch)
			delete(cc.pending, seq)
		}
	}
	cc.mu.Unlock()
}
