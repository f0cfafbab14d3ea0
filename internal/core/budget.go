package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// This file implements per-query resource governance. A Budget bounds a
// pipeline run along three dimensions — work units, auxiliary bytes and wall
// time — and the bottom-up pipeline turns exhaustion into an *anytime
// partial result* instead of a failure: every edit-distance level that
// completed before the budget died is exact (Obs. 1 makes each level's
// search state depend only on the previous, completed, level), so the run
// returns Result.Partial with the completed prototype columns intact and the
// unfinished ones marked unknown.
//
// Charging stays off the hot path: work is charged in cancelInterval-sized
// batches by the same amortized CancelCheck probes that poll cancellation —
// plus each probe's tail when it is released, at the end of every M* round
// and of every prototype search, right before the coordinator
// re-checks the budget — and byte charges happen only at the pipeline's few
// large allocation sites (state clones, candidate masks, containment states,
// compacted views, bit-sliced LCC blocks).

// ErrBudgetExhausted is the sentinel for budget exhaustion, the sibling of
// the context cancellation path: errors.Is(err, ErrBudgetExhausted) reports
// whether a run stopped because its Budget ran out. The concrete error is a
// *BudgetError carrying the exhausted dimension.
var ErrBudgetExhausted = errors.New("query budget exhausted")

// Budget bounds one pipeline run. The zero value is unlimited. Budgets are
// advisory between charge points, not preemptive: a run overshoots by at
// most one probe interval of work plus the allocation being charged.
type Budget struct {
	// MaxWork caps the run's work units. One work unit is one hot-loop
	// probe tick — roughly one visitor delivery, token hop or candidate
	// probe — so it tracks the Metrics message counters, not wall time.
	// 0 means unlimited.
	MaxWork int64
	// MaxBytes caps the run's cumulative auxiliary allocation: per-search
	// state clones and candidate masks, containment states, compacted
	// views, bit-sliced LCC blocks. The background graph itself is not
	// charged (it is shared and loaded once). 0 means unlimited.
	MaxBytes int64
	// MaxWall caps the run's wall time, measured from the first charge.
	// Unlike a context deadline, wall exhaustion still yields a partial
	// result. 0 means unlimited.
	MaxWall time.Duration
}

// Unlimited reports whether the budget bounds nothing.
func (b Budget) Unlimited() bool {
	return b.MaxWork <= 0 && b.MaxBytes <= 0 && b.MaxWall <= 0
}

// BudgetError reports which dimension of a Budget ran out. It matches
// ErrBudgetExhausted under errors.Is.
type BudgetError struct {
	// Dim is "work", "bytes" or "wall".
	Dim string
	// Limit is the configured cap; Used is the consumption that crossed it
	// (work units, bytes, or nanoseconds for the wall dimension).
	Limit, Used int64
}

func (e *BudgetError) Error() string {
	if e.Dim == "wall" {
		return fmt.Sprintf("%v: wall %v exceeded %v",
			ErrBudgetExhausted, time.Duration(e.Used), time.Duration(e.Limit))
	}
	return fmt.Sprintf("%v: %s %d exceeded %d", ErrBudgetExhausted, e.Dim, e.Used, e.Limit)
}

func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExhausted }

// BudgetTracker is the shared, concurrency-safe account a run charges
// against. One tracker serves every goroutine of a run (parallel prototype
// searches charge the same atomics through their forked probes).
type BudgetTracker struct {
	maxWork  int64
	maxBytes int64
	maxWall  time.Duration

	work  atomic.Int64
	bytes atomic.Int64
	// startNanos is the wall-clock origin, set once at the first charge so
	// queue wait before the run does not consume wall budget.
	startNanos atomic.Int64
}

// NewBudgetTracker returns a tracker for b, or nil when b is unlimited
// (a nil *BudgetTracker is valid and never charges).
func NewBudgetTracker(b Budget) *BudgetTracker {
	if b.Unlimited() {
		return nil
	}
	return &BudgetTracker{maxWork: b.MaxWork, maxBytes: b.MaxBytes, maxWall: b.MaxWall}
}

// WorkUsed returns the work units charged so far.
func (t *BudgetTracker) WorkUsed() int64 {
	if t == nil {
		return 0
	}
	return t.work.Load()
}

// BytesUsed returns the auxiliary bytes charged so far.
func (t *BudgetTracker) BytesUsed() int64 {
	if t == nil {
		return 0
	}
	return t.bytes.Load()
}

// charge adds n work units and checks every dimension; it returns a
// *BudgetError when any cap is crossed.
func (t *BudgetTracker) charge(n int64) error {
	if t == nil {
		return nil
	}
	w := t.work.Add(n)
	if t.maxWork > 0 && w > t.maxWork {
		return &BudgetError{Dim: "work", Limit: t.maxWork, Used: w}
	}
	if t.maxBytes > 0 {
		if b := t.bytes.Load(); b > t.maxBytes {
			return &BudgetError{Dim: "bytes", Limit: t.maxBytes, Used: b}
		}
	}
	return t.checkWall()
}

// checkWall polls the wall-clock dimension, arming the origin on first use.
func (t *BudgetTracker) checkWall() error {
	if t == nil || t.maxWall <= 0 {
		return nil
	}
	now := time.Now().UnixNano()
	start := t.startNanos.Load()
	if start == 0 {
		if t.startNanos.CompareAndSwap(0, now) {
			return nil
		}
		start = t.startNanos.Load()
	}
	if used := now - start; used > int64(t.maxWall) {
		return &BudgetError{Dim: "wall", Limit: int64(t.maxWall), Used: used}
	}
	return nil
}

// chargeBytes adds n auxiliary bytes; it returns a *BudgetError when the
// byte cap is crossed.
func (t *BudgetTracker) chargeBytes(n int64) error {
	if t == nil || n <= 0 {
		return nil
	}
	b := t.bytes.Add(n)
	if t.maxBytes > 0 && b > t.maxBytes {
		return &BudgetError{Dim: "bytes", Limit: t.maxBytes, Used: b}
	}
	return nil
}

// tryChargeBytes charges n bytes only if they fit under the cap; it reports
// whether the charge was applied. Optional allocations (compacted views) use
// it to decline gracefully instead of aborting the run.
func (t *BudgetTracker) tryChargeBytes(n int64) bool {
	if t == nil || n <= 0 {
		return true
	}
	if t.maxBytes > 0 {
		for {
			b := t.bytes.Load()
			if b+n > t.maxBytes {
				return false
			}
			if t.bytes.CompareAndSwap(b, b+n) {
				return true
			}
		}
	}
	t.bytes.Add(n)
	return true
}

// budgetCtxKey carries a *BudgetTracker through a context.
type budgetCtxKey struct{}

// WithBudget attaches a fresh tracker for b to ctx. An unlimited budget
// returns ctx unchanged. Every pipeline entry point picks the tracker up via
// its cancellation probes, so one WithBudget near the top of a query governs
// the whole run, including the distributed engine's finalization calls.
func WithBudget(ctx context.Context, b Budget) context.Context {
	return WithBudgetTracker(ctx, NewBudgetTracker(b))
}

// WithBudgetTracker attaches an existing tracker to ctx (nil returns ctx
// unchanged). Use it when the caller needs to observe consumption afterwards
// (BudgetTracker.WorkUsed / BytesUsed).
func WithBudgetTracker(ctx context.Context, t *BudgetTracker) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, budgetCtxKey{}, t)
}

// BudgetFromContext returns the tracker attached to ctx, or nil.
func BudgetFromContext(ctx context.Context) *BudgetTracker {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(budgetCtxKey{}).(*BudgetTracker)
	return t
}

// withConfigBudget applies cfg's budget to ctx unless the caller already
// attached one (an explicit WithBudget wins over Config.Budget).
func withConfigBudget(ctx context.Context, b Budget) context.Context {
	if b.Unlimited() || BudgetFromContext(ctx) != nil {
		return ctx
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return WithBudget(ctx, b)
}

// recoverBudgetAbort converts a budget-exhaustion abort into *err; every
// other panic — including context cancellation aborts — propagates. The
// level loops defer it around each edit-distance level so exhaustion stops
// the pipeline *between* levels with the completed levels intact.
func recoverBudgetAbort(err *error) {
	r := recover()
	if r == nil {
		return
	}
	if a, ok := r.(pipelineAbort); ok && errors.Is(a.err, ErrBudgetExhausted) {
		*err = a.err
		return
	}
	panic(r)
}

// PanicError wraps a panic raised inside a prototype search. The bottom-up
// level driver converts it into this error at every width instead of
// crashing the process, so one poisoned query cannot take down a server
// hosting many (the serving layer maps it to a 500).
type PanicError struct {
	// Val is the recovered panic value.
	Val any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("pipeline panic: %v", e.Val)
}
