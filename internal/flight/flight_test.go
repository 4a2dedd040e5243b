package flight

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Every wait here runs against a deadline: a timeout is a parked caller
// that nothing will wake, not slowness.
const deadline = 10 * time.Second

func waitOrFatal(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(deadline):
		t.Fatal(what)
	}
}

func TestDoLeads(t *testing.T) {
	var g Group[string, int]
	for i := 1; i <= 2; i++ {
		v, shared := g.Do("k", func() int { return i })
		if v != i || shared {
			t.Fatalf("Do #%d = (%d, %v), want (%d, false): a finished call is not cached", i, v, shared, i)
		}
	}
}

// TestDoFollowersShare parks followers behind a blocked leader: fn runs
// once and every follower gets the leader's value, marked shared.
func TestDoFollowersShare(t *testing.T) {
	var g Group[int, int]
	var runs atomic.Int64
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	fn := func() int {
		if runs.Add(1) == 1 {
			close(leaderIn)
			<-release
		}
		return 42
	}
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		if v, shared := g.Do(1, fn); v != 42 || shared {
			t.Errorf("leader = (%d, %v), want (42, false)", v, shared)
		}
	}()
	<-leaderIn

	const followers = 8
	var wg sync.WaitGroup
	var joined atomic.Int64
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared := g.Do(1, fn)
			if v != 42 {
				t.Errorf("follower got %d, want 42", v)
			}
			if shared {
				joined.Add(1)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the followers park on the call
	close(release)
	waitOrFatal(t, leaderDone, "leader never returned")
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	waitOrFatal(t, done, "followers still parked after the leader returned")

	// A follower that arrived after the leader finished led its own call.
	if n := runs.Load(); n != 1+followers-joined.Load() {
		t.Fatalf("fn ran %d times with %d of %d followers joined", n, joined.Load(), followers)
	}
	if joined.Load() == 0 {
		t.Fatal("no follower joined the in-flight call")
	}
}

// TestDoPanicReleasesFollowers: the leader's panic reaches its caller
// unrecovered, the parked followers retry and one of them leads the
// next call, and the key is free again afterwards.
func TestDoPanicReleasesFollowers(t *testing.T) {
	var g Group[string, int]
	var runs atomic.Int64
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	fn := func() int {
		if runs.Add(1) == 1 {
			close(leaderIn)
			<-release
			panic("leader exploded")
		}
		return 7
	}
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		g.Do("k", fn)
	}()
	<-leaderIn

	const followers = 8
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, _ := g.Do("k", fn); v != 7 {
				t.Errorf("follower got %d, want 7 (the retry leader's value)", v)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the followers park on the call
	close(release)

	select {
	case p := <-panicked:
		if p != "leader exploded" {
			t.Fatalf("leader recovered %v, want the panic re-propagated", p)
		}
	case <-time.After(deadline):
		t.Fatal("panicking leader never returned")
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	waitOrFatal(t, done, "followers still parked after the leader panicked")

	if v, shared := g.Do("k", func() int { return 9 }); v != 9 || shared {
		t.Fatalf("Do after the panic = (%d, %v), want (9, false)", v, shared)
	}
}

// TestDoKeysIndependent: a blocked call on one key does not hold up
// another key.
func TestDoKeysIndependent(t *testing.T) {
	var g Group[int, int]
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		g.Do(1, func() int { close(leaderIn); <-release; return 1 })
	}()
	<-leaderIn

	done := make(chan struct{})
	go func() {
		defer close(done)
		if v, shared := g.Do(2, func() int { return 2 }); v != 2 || shared {
			t.Errorf("Do(2) = (%d, %v), want (2, false)", v, shared)
		}
	}()
	waitOrFatal(t, done, "Do on a free key waited on another key's call")
	close(release)
	waitOrFatal(t, leaderDone, "leader never returned")
}

// TestDoAllocs pins an uncontended call at one allocation, the call
// record itself: fn does not escape, so a closure passed to Do stays on
// the caller's stack.
func TestDoAllocs(t *testing.T) {
	var g Group[int, int]
	g.Do(0, func() int { return 0 }) // allocate the map outside the measurement
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		g.Do(i, func() int { return i * 2 })
		i++
	}); avg > 1 {
		t.Fatalf("uncontended Do: %.1f allocs/op, want <= 1", avg)
	}
}
