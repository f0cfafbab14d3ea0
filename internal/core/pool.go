package core

import "sync"

// Pool is a fixed-size worker pool for the supersteps of the
// maximum-candidate-set computation (§4's vertex-level data parallelism):
// its O(m) seed and its fixpoint rounds.
//
// A nil *Pool is valid and means "the calling goroutine": the superstep runs
// as a single partition inline, with the same results and counters. NewPool
// returns nil for workers <= 0, so callers can thread Config.Workers straight
// through.
//
// Supersteps must only be submitted from outside the pool, never from a pool
// worker itself: run blocks until all of its parts finish, so nested
// submission could deadlock a fully busy pool.
type Pool struct {
	workers int
	tasks   chan func()
	once    sync.Once
}

// NewPool starts a pool of the given size, or returns nil (inline) when
// workers <= 0. Callers own the pool and must Close it.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		return nil
	}
	p := &Pool{workers: workers, tasks: make(chan func())}
	for i := 0; i < workers; i++ {
		go func() {
			for fn := range p.tasks {
				fn()
			}
		}()
	}
	return p
}

// Workers returns the pool size; 0 for a nil (inline) pool.
func (p *Pool) Workers() int {
	if p == nil {
		return 0
	}
	return p.workers
}

// Close stops the workers once every submitted task has drained. Safe to
// call multiple times and on a nil pool.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.once.Do(func() { close(p.tasks) })
}

// run executes fn(0..parts-1) on the pool and blocks until all parts
// return. A panic in any part — including the pipelineAbort cancellation
// panic — is re-raised on the caller after the remaining parts finish, so
// the barrier is never left half-crossed and RecoverCancel keeps working
// across the pool boundary.
func (p *Pool) run(parts int, fn func(part int)) {
	if parts == 1 {
		fn(0)
		return
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first any
	)
	wg.Add(parts)
	for i := 0; i < parts; i++ {
		part := i
		p.tasks <- func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if first == nil {
						first = r
					}
					mu.Unlock()
				}
			}()
			fn(part)
		}
	}
	wg.Wait()
	if first != nil {
		panic(first)
	}
}
