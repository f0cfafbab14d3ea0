package core

import "context"

// cancelInterval is the number of Tick calls between real context polls.
// Ticks sit on the pipeline's hot loops (per-vertex LCC work, NLCC token
// hops, verification probes), each of which does at least a neighborhood's
// worth of real work, so polling every 256 ticks keeps the overhead
// unmeasurable while reacting to cancellation within fractions of a
// millisecond even on heavily pruned (small) active sets.
const cancelInterval = 256

// CancelCheck is a cheap, amortized cancellation *and budget* probe threaded
// through the pipeline phases. A nil *CancelCheck is valid and never fires,
// which is what NewCancelCheck returns for contexts that cannot be canceled
// and carry no budget — the context-free entry points keep their exact
// pre-context behavior and cost.
//
// When the context carries a BudgetTracker (WithBudget), every real poll
// also charges the ticks accumulated since the previous poll as work units,
// so budget accounting rides the existing amortization for free: the hot
// loops still only pay a local counter increment per tick.
//
// A CancelCheck is NOT safe for concurrent use: every level work item (one
// prototype search, or a bit-sliced LCC block and its searches) and every
// superstep partition Forks its own (forks share the underlying
// tracker, whose counters are atomic) and Releases it when its unit of work
// ends, so the run's charge is the sum of its ticks regardless of how the
// work was spread over goroutines.
type CancelCheck struct {
	ctx     context.Context
	tracker *BudgetTracker
	n       uint32
	// sinceCharge counts ticks not yet charged to the tracker.
	sinceCharge uint32
}

// NewCancelCheck returns a probe for ctx, or nil when ctx can never be
// canceled (nil, context.Background, context.TODO) and carries no budget.
func NewCancelCheck(ctx context.Context) *CancelCheck {
	if ctx == nil {
		return nil
	}
	t := BudgetFromContext(ctx)
	if ctx.Done() == nil && t == nil {
		return nil
	}
	return &CancelCheck{ctx: ctx, tracker: t}
}

// Fork returns an independent probe for the same context, for use by one
// unit of work that may run on another goroutine. Forks charge the same
// shared budget tracker; whoever forks must Release the probe when the unit
// ends, or the ticks since its last poll are never charged.
func (c *CancelCheck) Fork() *CancelCheck {
	if c == nil {
		return nil
	}
	return &CancelCheck{ctx: c.ctx, tracker: c.tracker}
}

// Release drains the ticks counted since the probe's last poll into the
// shared tracker. It never aborts — it is safe to defer on a path already
// unwinding from an abort — so exhaustion it causes is observed by the next
// Check on any probe of the run: the coordinator's at a superstep barrier or
// level end. The probe stays usable; the M* supersteps Release their
// partition probes at every barrier.
func (c *CancelCheck) Release() {
	if c == nil || c.tracker == nil || c.sinceCharge == 0 {
		return
	}
	c.tracker.work.Add(int64(c.sinceCharge))
	c.sinceCharge = 0
}

// Tick is called from hot loops; every cancelInterval-th call polls the
// context and the budget, and aborts the pipeline (via panic, see
// RecoverCancel / recoverBudgetAbort) when either has fired.
func (c *CancelCheck) Tick() {
	if c == nil {
		return
	}
	c.sinceCharge++
	if c.n++; c.n%cancelInterval != 0 {
		return
	}
	c.Check()
}

// tickN is n Tick calls at once, polling when the count crosses a multiple of
// cancelInterval. The bit-sliced LCC charges one tick per lane per vertex
// visit with it, so a block's charge is exactly its lanes' lcc charges.
func (c *CancelCheck) tickN(n int) {
	if c == nil {
		return
	}
	c.sinceCharge += uint32(n)
	before := c.n
	if c.n += uint32(n); c.n/cancelInterval != before/cancelInterval {
		c.Check()
	}
}

// Check polls the context and the budget immediately and aborts the pipeline
// when either has fired. Entry points call it up front so a query with an
// already-expired deadline returns before any graph work starts; the
// M* supersteps call it at each barrier merge so budget exhaustion is
// observed at superstep granularity even when worker probes are mid-batch.
func (c *CancelCheck) Check() {
	if c == nil {
		return
	}
	if c.ctx != nil && c.ctx.Done() != nil {
		if err := c.ctx.Err(); err != nil {
			panic(pipelineAbort{err})
		}
	}
	if c.tracker != nil {
		n := int64(c.sinceCharge)
		c.sinceCharge = 0
		if err := c.tracker.charge(n); err != nil {
			panic(pipelineAbort{err})
		}
	}
}

// ChargeBytes charges an auxiliary allocation of n bytes against the run's
// budget, aborting the pipeline on exhaustion. The pipeline calls it at its
// few large allocation sites (state clones, candidate masks, containment
// states) — never from hot loops.
func (c *CancelCheck) ChargeBytes(n int64) {
	if c == nil || c.tracker == nil {
		return
	}
	if err := c.tracker.chargeBytes(n); err != nil {
		panic(pipelineAbort{err})
	}
}

// TryChargeBytes attempts to charge an *optional* allocation of n bytes and
// reports whether it fits under the budget. Callers that can proceed without
// the allocation (compacted views are an optimization, not a requirement)
// use it to decline gracefully instead of aborting.
func (c *CancelCheck) TryChargeBytes(n int64) bool {
	if c == nil || c.tracker == nil {
		return true
	}
	return c.tracker.tryChargeBytes(n)
}

// pipelineAbort carries a context error out of the deeply nested phase
// loops. Threading an error return through the LCC fixpoint, NLCC walks and
// the backtracking verifier would contaminate every signature for a path
// taken only on cancellation, so the abort travels as a panic and is
// converted back to an ordinary error at the pipeline entry points.
type pipelineAbort struct{ err error }

// RecoverCancel converts a cancellation abort into *err; any other panic is
// re-raised. Defer it in any function that calls pipeline internals with a
// live CancelCheck (the Context entry points here and in internal/dist do).
func RecoverCancel(err *error) {
	switch r := recover().(type) {
	case nil:
	case pipelineAbort:
		*err = r.err
	default:
		panic(r)
	}
}

// guardedRun is the one prologue every pipeline entry point shares: it
// applies the config's budget to ctx (unless the caller attached one), builds
// the run's root probe, polls it once so a query with an already-expired
// deadline or spent budget returns before any graph work starts, converts an
// abort raised anywhere below into an ordinary error, and drains the root
// probe's tail so the tracker reads the run's full charge afterwards.
func guardedRun[R any](ctx context.Context, b Budget, run func(cc *CancelCheck) (R, error)) (res R, err error) {
	cc := NewCancelCheck(withConfigBudget(ctx, b))
	defer RecoverCancel(&err)
	defer cc.Release()
	cc.Check()
	return run(cc)
}
