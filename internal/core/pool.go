package core

import "sync"

// Pool is a fixed-size worker pool shared by the superstep kernels of a run
// (§4's vertex-level data parallelism). One pool serves every kernel call of
// a pipeline run — including the concurrent prototype searches of a level —
// so the total kernel concurrency of a run is bounded by the pool size
// rather than by searches × workers.
//
// A nil *Pool is valid and means "sequential": the kernels fall back to the
// reference Gauss-Seidel loops, preserving the exact pre-parallel behavior
// and counter values. NewPool returns nil for workers <= 0, so callers can
// thread Config.Workers straight through.
//
// Kernel supersteps must only be submitted from outside the pool (the run's
// search goroutines), never from a pool worker itself: run blocks until all
// of its parts finish, so nested submission could deadlock a fully busy
// pool.
type Pool struct {
	workers int
	tasks   chan func()
	once    sync.Once

	// free holds the partition buffers of finished superstep kernel calls
	// (see partDelta) for the run's next ones: as many sets as kernel calls
	// ever ran side by side, i.e. at most the level width.
	mu   sync.Mutex
	free [][]*partDelta
}

// NewPool starts a pool of the given size, or returns nil (sequential) when
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

// Workers returns the pool size; 0 for a nil (sequential) pool.
func (p *Pool) Workers() int {
	if p == nil {
		return 0
	}
	return p.workers
}

// partBuffers returns parts partition buffers for one superstep kernel call:
// a set an earlier call of the run recycled, when there is one, so the
// elimination lists and gather scratches keep the capacity they grew to. A
// nil pool (the sequential schedule's single inline partition) gets fresh
// ones.
func (p *Pool) partBuffers(parts int) []*partDelta {
	if p != nil {
		p.mu.Lock()
		defer p.mu.Unlock()
		if n := len(p.free); n > 0 {
			set := p.free[n-1]
			p.free = p.free[:n-1]
			return set
		}
	}
	set := make([]*partDelta, parts)
	for i := range set {
		set[i] = &partDelta{}
	}
	return set
}

// recycle takes back a set handed out by partBuffers.
func (p *Pool) recycle(set []*partDelta) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, set)
	p.mu.Unlock()
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
