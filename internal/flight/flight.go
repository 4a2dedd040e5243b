// Package flight deduplicates concurrent calls that compute the same
// value (singleflight): the first caller for a key, the leader, runs the
// function, and callers that arrive while it runs, the followers, wait
// for it and share its value. Every in-process memo and the remote
// client's GET path use it, so they all have one panic policy: a panic
// in the leader's function propagates, unrecovered, to the leader's
// caller, and its followers are released to retry, one of them becoming
// the next leader.
package flight

import "sync"

// Group is a set of in-flight calls keyed by K. The zero value is ready
// to use. A Group must not be copied after first use.
type Group[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*call[V]
}

// call is one leader's run. val and ok are written before wg is
// released, so a follower reads them after Wait without the lock.
type call[V any] struct {
	wg  sync.WaitGroup
	val V
	ok  bool // fn returned; false when it panicked
}

// Do returns fn's value for key. When no call for key is in flight, the
// caller leads: it runs fn and returns its value with shared false. When
// one is, the caller waits for it and returns the leader's value with
// shared true; if the leader's fn panicked instead, the caller retries.
// fn must not call Do on the same Group and key.
func (g *Group[K, V]) Do(key K, fn func() V) (v V, shared bool) {
	g.mu.Lock()
	for c, ok := g.calls[key]; ok; c, ok = g.calls[key] {
		g.mu.Unlock()
		c.wg.Wait()
		if c.ok {
			return c.val, true
		}
		g.mu.Lock()
	}
	c := new(call[V])
	c.wg.Add(1)
	if g.calls == nil {
		g.calls = make(map[K]*call[V])
	}
	g.calls[key] = c
	g.mu.Unlock()

	// The release is deferred so that a panic in fn still removes the
	// call and wakes its followers; otherwise every later Do on key would
	// wait forever.
	defer g.release(key, c)
	c.val = fn()
	c.ok = true
	return c.val, false
}

func (g *Group[K, V]) release(key K, c *call[V]) {
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	c.wg.Done()
}
