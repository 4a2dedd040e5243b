package compreuse

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"compreuse/internal/obs"
	"compreuse/internal/reused"
)

// These are liveness regressions: each guards a path that used to hang
// forever rather than fail, so every wait here runs against a deadline
// — a timeout is the bug coming back, not slowness.

// waitOrFatal fails the test if done does not close within d.
func waitOrFatal(t *testing.T, done <-chan struct{}, d time.Duration, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal(what)
	}
}

// TestTeardownNoDeadlock kills the server out from under a pile of
// concurrent callers and requires every call to return. The historical
// bug: writeLoop exits on a write error without draining writeCh, and a
// caller that had already passed the cc.err check then parks forever on
// a full writeCh — no receiver ever comes back. The fix selects the
// send against the connection's done channel.
func TestTeardownNoDeadlock(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := reused.New(reused.Config{})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	defer func() { srv.Close(); <-serveDone }()

	// One connection and a deep pipeline: the more senders share a
	// writeCh, the likelier the undrained-queue window is occupied when
	// the write side dies.
	c, err := DialCache(ClientConfig{Addr: ln.Addr().String(), Conns: 1, MaxInflight: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seg, err := c.Segment("teardown", SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 32
	var started sync.WaitGroup
	finished := make(chan struct{})
	var wg sync.WaitGroup
	started.Add(workers)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(id int) {
			defer wg.Done()
			started.Done()
			for i := 0; ; i++ {
				k := []byte(fmt.Sprintf("k-%d-%d", id, i))
				if _, _, err := seg.Get(k); err != nil {
					return // server is gone; an error return is the fix working
				}
				if err := seg.Put(k, []uint64{1}, time.Microsecond); err != nil {
					return
				}
			}
		}(w)
	}
	go func() { wg.Wait(); close(finished) }()

	started.Wait()
	time.Sleep(10 * time.Millisecond) // let the pipeline fill mid-flight
	srv.Close()

	waitOrFatal(t, finished, 10*time.Second,
		"callers still blocked 10s after server teardown (writeCh deadlock)")
}

// fakeRemote is an L2 that always misses, so every TieredMemo.Do takes
// the singleflight leader path. It is its own Remote.
type fakeRemote struct{ puts atomic.Int64 }

func (f *fakeRemote) remoteSegment(string, SegmentConfig) (remoteCache, error) { return f, nil }

func (f *fakeRemote) Get(key []byte) ([]uint64, GetStatus, error) { return nil, Miss, nil }
func (f *fakeRemote) GetTraced(key []byte, _ obs.TraceCtx) ([]uint64, GetStatus, error) {
	return f.Get(key)
}
func (f *fakeRemote) Put(key []byte, vals []uint64, cost time.Duration) error {
	f.puts.Add(1)
	return nil
}
func (f *fakeRemote) PutTraced(key []byte, vals []uint64, cost time.Duration, _ obs.TraceCtx) error {
	return f.Put(key, vals, cost)
}
func (f *fakeRemote) Stats() (RemoteStats, error) { return RemoteStats{}, nil }
func (f *fakeRemote) Flush() error                { return nil }

// panicCase builds one memo whose compute runs body and returns a call
// on one fixed key.
type panicCase struct {
	name string
	make func(t *testing.T, body func() uint64) func() uint64
}

var panicCases = []panicCase{
	{"Memoized", func(t *testing.T, body func() uint64) func() uint64 {
		m := NewMemoized(func(int) uint64 { return body() })
		return func() uint64 { return m.Call(7) }
	}},
	{"Memo", func(t *testing.T, body func() uint64) func() uint64 {
		f, _ := Memo(func(int) uint64 { return body() })
		return func() uint64 { return f(7) }
	}},
	{"Memoized2", func(t *testing.T, body func() uint64) func() uint64 {
		m := NewMemoized2(func(int, string) uint64 { return body() })
		return func() uint64 { return m.Call(7, "k") }
	}},
	{"Memo2", func(t *testing.T, body func() uint64) func() uint64 {
		f, _ := Memo2(func(int, string) uint64 { return body() })
		return func() uint64 { return f(7, "k") }
	}},
	{"TieredMemo", func(t *testing.T, body func() uint64) func() uint64 {
		tm, err := NewTieredMemo(&fakeRemote{}, TieredMemoConfig{Name: "panic"})
		if err != nil {
			t.Fatal(err)
		}
		return func() uint64 { return tm.Do([]byte("the-key"), body) }
	}},
	{"DepMemo", func(t *testing.T, body func() uint64) func() uint64 {
		m := NewDepMemo(DepConfig{Name: "panic"})
		return func() uint64 {
			return m.Do(new(DepInputs).Int(7), func(d *Dep) uint64 { d.Get(0); return body() })
		}
	}},
}

// TestPanicLiveness parks followers behind a leader whose compute
// panics, for every memo that deduplicates concurrent misses. The
// historical bugs: a panic skipped the leader's delete-and-close of its
// in-flight entry, so followers — and every later call on the key —
// waited forever on a done channel nobody would close. The contract: the
// panic reaches the leader's caller unrecovered, the parked followers
// are released (one of them recomputes), and the next call returns.
func TestPanicLiveness(t *testing.T) {
	for _, tc := range panicCases {
		t.Run(tc.name, func(t *testing.T) {
			leaderIn := make(chan struct{}) // closed once the leader is inside compute
			release := make(chan struct{})  // closed to let the leader panic
			var computes atomic.Int64
			do := tc.make(t, func() uint64 {
				if computes.Add(1) == 1 {
					close(leaderIn)
					<-release
					panic("compute exploded")
				}
				return 42
			})

			panicked := make(chan any, 1) // the leader's recovered panic value
			leaderDone := make(chan struct{})
			go func() {
				defer close(leaderDone)
				defer func() { panicked <- recover() }()
				do()
			}()
			<-leaderIn

			// Followers pile onto the in-flight key. Their computes return
			// a real value, so whichever one takes over settles the key.
			const followers = 8
			var wg sync.WaitGroup
			results := make([]uint64, followers)
			for i := 0; i < followers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					results[i] = do()
				}(i)
			}
			time.Sleep(20 * time.Millisecond) // let the followers park on the flight
			close(release)

			waitOrFatal(t, leaderDone, 10*time.Second, "panicking leader never returned")
			if v := <-panicked; v != "compute exploded" {
				t.Fatalf("leader panic = %v, want %q re-propagated", v, "compute exploded")
			}
			followersDone := make(chan struct{})
			go func() { wg.Wait(); close(followersDone) }()
			waitOrFatal(t, followersDone, 10*time.Second,
				"followers still parked after the leader panicked (unreleased flight)")
			for i, v := range results {
				if v != 42 {
					t.Errorf("follower %d got %d, want 42 (the retry leader's value)", i, v)
				}
			}

			// The flight must be gone: the next call is served, not parked
			// on a ghost.
			next := make(chan uint64, 1)
			go func() { next <- do() }()
			select {
			case v := <-next:
				if v != 42 {
					t.Fatalf("call after the panic = %d, want 42", v)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("call after the panic blocked")
			}
		})
	}
}

// TestObserveRTTConcurrent hammers the RTT estimator from many
// goroutines. The historical bug was a load/store pair (a lost-update
// race the race detector flags); the fix is a CAS loop, which this
// exercises under -race.
func TestObserveRTTConcurrent(t *testing.T) {
	var c Client
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= 1000; i++ {
				c.observeRTT(time.Duration(g*1000+i)*time.Nanosecond, 0)
			}
		}(g)
	}
	wg.Wait()
	if c.RTT() <= 0 {
		t.Fatalf("RTT = %v after 8000 observations, want > 0", c.RTT())
	}
}
