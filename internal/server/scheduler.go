package server

import (
	"context"
	"errors"
	"sync"
)

// errOverloaded is returned by scheduler.acquire when the admission queue is
// full; handlers translate it to 503 + Retry-After.
var errOverloaded = errors.New("server overloaded")

// scheduler bounds the serving layer's concurrency: at most maxConcurrent
// queries run the pipeline at once, and at most queueDepth more may wait for
// a slot. Anything beyond that is rejected immediately (load shedding) so a
// traffic spike degrades into fast 503s instead of an unbounded queue of
// slow requests.
//
// It also sizes each admitted query's prototype parallelism. A fixed width
// (Config.Parallelism) is handed to every query; otherwise a query gets the
// cores no other in-flight query holds, at least one. A lone query spreads
// its levels over the whole machine (§4, Fig. 8 scenario Z), while under
// concurrent load each query runs at width 1 and the cores go to whole
// queries instead, whose serial phases — M*, compaction, walk preparation,
// the level commit — then overlap too.
type scheduler struct {
	// slots holds one token per in-flight pipeline run.
	slots chan struct{}
	// queue holds one token per admitted request (in-flight + waiting);
	// its capacity is maxConcurrent+queueDepth.
	queue chan struct{}

	// width is the fixed per-query width, or 0 to size each query from the
	// idle cores. cores is GOMAXPROCS at construction; held counts the
	// cores handed to in-flight queries, which can exceed cores while a
	// query admitted alone runs beside later ones.
	width, cores int
	mu           sync.Mutex
	held         int
}

func newScheduler(maxConcurrent, queueDepth, width, cores int) *scheduler {
	if maxConcurrent < 1 {
		maxConcurrent = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	return &scheduler{
		slots: make(chan struct{}, maxConcurrent),
		queue: make(chan struct{}, maxConcurrent+queueDepth),
		width: width,
		cores: cores,
	}
}

// acquire admits the request and blocks until a pipeline slot frees up or
// ctx fires. It returns errOverloaded immediately when the admission queue
// is full, ctx.Err() when the caller's context fires while waiting, and
// otherwise the query's width and a release function that MUST be called
// exactly once — as soon as the pipeline run finishes, before response
// serialization, so a slow client draining a large response does not hold
// query capacity.
func (s *scheduler) acquire(ctx context.Context) (release func(), width int, err error) {
	select {
	case s.queue <- struct{}{}:
	default:
		return nil, 0, errOverloaded
	}
	select {
	case s.slots <- struct{}{}:
		width = s.take()
		var once sync.Once
		return func() {
			once.Do(func() {
				s.give(width)
				<-s.slots
				<-s.queue
			})
		}, width, nil
	case <-ctx.Done():
		<-s.queue
		return nil, 0, ctx.Err()
	}
}

// take sizes an admitted query's width and marks its cores held.
func (s *scheduler) take() int {
	if s.width > 0 {
		return s.width
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w := max(s.cores-s.held, 1)
	s.held += w
	return w
}

// give returns the cores take handed out.
func (s *scheduler) give(width int) {
	if s.width > 0 {
		return
	}
	s.mu.Lock()
	s.held -= width
	s.mu.Unlock()
}

// inFlight reports the number of queries currently holding a pipeline slot.
func (s *scheduler) inFlight() int { return len(s.slots) }

// waiting reports the number of admitted queries waiting for a slot.
func (s *scheduler) waiting() int {
	if n := len(s.queue) - len(s.slots); n > 0 {
		return n
	}
	return 0
}
