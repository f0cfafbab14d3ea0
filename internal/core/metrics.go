package core

import (
	"fmt"
	"time"
)

// Metrics counts the logical work the engine performs. In the distributed
// engine these counters correspond to real messages; in this sequential
// engine they count the visitor/token deliveries the same algorithm would
// generate, which is what §5.7's message analysis reports.
type Metrics struct {
	// CandidateMessages counts visitor deliveries during max-candidate-set
	// generation (reported separately in the §5.7 table).
	CandidateMessages int64
	// LCCMessages counts visitor deliveries during local constraint
	// checking iterations.
	LCCMessages int64
	// NLCCMessages counts token forwards during non-local constraint
	// checking walks.
	NLCCMessages int64
	// VerifyMessages counts candidate probes during the final exact
	// verification phase.
	VerifyMessages int64
	// TokensInitiated counts NLCC walk initiations.
	TokensInitiated int64
	// CacheHits counts NLCC walks skipped thanks to work recycling
	// (Obs. 2).
	CacheHits int64
	// CacheEvictions counts work-recycling cache entries evicted to honor
	// the cache's byte cap (Config.CacheBytes). Evictions cost recomputation
	// only, never correctness.
	CacheEvictions int64
	// LCCIterations counts LCC fixpoint rounds.
	LCCIterations int64
	// VerifySearches counts seeded match searches in the verification
	// phase.
	VerifySearches int64
	// EnumExpansions counts backtracking node expansions (successful
	// partial-assignment extensions) during match counting/enumeration;
	// VerifyExpansions counts the same during verification probes. With
	// symmetry breaking enabled, EnumExpansions drops by roughly |Aut(T)|
	// at the deep levels while counts stay identical.
	EnumExpansions   int64
	VerifyExpansions int64
	// GuardHits counts candidates rejected in O(1) by a recorded failure
	// guard; GuardsSet counts guards recorded.
	GuardHits int64
	GuardsSet int64
	// PrototypesSearched counts SEARCH_PROTOTYPE invocations.
	PrototypesSearched int64

	// CompactionChecks counts CompactState threshold evaluations (one per
	// level or gathered state with compaction enabled).
	CompactionChecks int64
	// Compactions counts compacted views actually built.
	Compactions int64
	// CompactionsDeclined counts compactions skipped because the view would
	// not fit under the run's byte budget (the search proceeds on the
	// uncompacted state — slower, never wrong).
	CompactionsDeclined int64
	// CompactionBytesReclaimed sums, over compactions, the working-set bytes
	// the kernels no longer touch (original CSR topology plus state bitvecs,
	// minus the view's).
	CompactionBytesReclaimed int64
	// CompactionFracBefore sums the active fraction observed at each
	// compaction check; CompactionFracAfter sums the fraction of the
	// structure actually searched afterwards (1.0 once compacted, the
	// before-value when the check declined). Divide by CompactionChecks for
	// averages.
	CompactionFracBefore float64
	CompactionFracAfter  float64

	// LCCBlocks counts bit-sliced LCC blocks run: each ran the first LCC
	// fixpoint of up to 64 prototypes of a level at once (see lccBlock).
	// LCCBlocksDeclined counts levels that would have run blocks but whose
	// block memory did not fit under the run's byte budget (the level runs
	// lcc per prototype instead — slower, never different).
	LCCBlocks         int64
	LCCBlocksDeclined int64

	// Fault-plane counters (distributed runtime only; zero on the
	// sequential path). FaultDrops/FaultDups/FaultReorders/FaultDelays
	// count injected message faults; Retries counts retransmissions of
	// unacked messages; Redeliveries counts duplicate deliveries the
	// receiver dedup suppressed; RankCheckpoints/CheckpointBytes count
	// per-rank state checkpoints and their serialized size; RankCrashes,
	// RankRestores and RankStalls count injected crash events, checkpoint
	// restorations and injected stalls.
	FaultDrops      int64
	FaultDups       int64
	FaultReorders   int64
	FaultDelays     int64
	Retries         int64
	Redeliveries    int64
	RankCheckpoints int64
	CheckpointBytes int64
	RankCrashes     int64
	RankRestores    int64
	RankStalls      int64

	// Socket-transport counters (TCP rank transport only; zero elsewhere).
	// SockFrames/SockBytes count frames successfully written to rank
	// sockets; SockDials counts connection establishments (first dials and
	// fault-recovery redials); SockConnDrops/SockPartialWrites/SockDelays
	// count injected socket faults; SockWriteErrors counts organic
	// write/dial failures (the frame is lost and retransmitted);
	// SockStaleFrames counts frames from finished or crashed traversal
	// attempts dropped by the reader's generation check.
	SockFrames        int64
	SockBytes         int64
	SockDials         int64
	SockConnDrops     int64
	SockPartialWrites int64
	SockDelays        int64
	SockWriteErrors   int64
	SockStaleFrames   int64

	// Phase wall times (the paper's Fig. 6 C/S breakdown): candidate-set
	// generation, LCC fixpoints, NLCC walks, final verification, and — with
	// Config.CountMatches — match counting on the verified solution subgraph.
	CandidateTime time.Duration
	LCCTime       time.Duration
	NLCCTime      time.Duration
	VerifyTime    time.Duration
	CountTime     time.Duration
}

// TotalMessages returns all visitor/token deliveries.
func (m *Metrics) TotalMessages() int64 {
	return m.CandidateMessages + m.LCCMessages + m.NLCCMessages + m.VerifyMessages
}

// Add accumulates other into m.
func (m *Metrics) Add(other *Metrics) {
	m.CandidateMessages += other.CandidateMessages
	m.LCCMessages += other.LCCMessages
	m.NLCCMessages += other.NLCCMessages
	m.VerifyMessages += other.VerifyMessages
	m.TokensInitiated += other.TokensInitiated
	m.CacheHits += other.CacheHits
	m.CacheEvictions += other.CacheEvictions
	m.LCCIterations += other.LCCIterations
	m.VerifySearches += other.VerifySearches
	m.EnumExpansions += other.EnumExpansions
	m.VerifyExpansions += other.VerifyExpansions
	m.GuardHits += other.GuardHits
	m.GuardsSet += other.GuardsSet
	m.PrototypesSearched += other.PrototypesSearched
	m.CompactionChecks += other.CompactionChecks
	m.Compactions += other.Compactions
	m.CompactionsDeclined += other.CompactionsDeclined
	m.CompactionBytesReclaimed += other.CompactionBytesReclaimed
	m.CompactionFracBefore += other.CompactionFracBefore
	m.CompactionFracAfter += other.CompactionFracAfter
	m.LCCBlocks += other.LCCBlocks
	m.LCCBlocksDeclined += other.LCCBlocksDeclined
	m.FaultDrops += other.FaultDrops
	m.FaultDups += other.FaultDups
	m.FaultReorders += other.FaultReorders
	m.FaultDelays += other.FaultDelays
	m.Retries += other.Retries
	m.Redeliveries += other.Redeliveries
	m.RankCheckpoints += other.RankCheckpoints
	m.CheckpointBytes += other.CheckpointBytes
	m.RankCrashes += other.RankCrashes
	m.RankRestores += other.RankRestores
	m.RankStalls += other.RankStalls
	m.SockFrames += other.SockFrames
	m.SockBytes += other.SockBytes
	m.SockDials += other.SockDials
	m.SockConnDrops += other.SockConnDrops
	m.SockPartialWrites += other.SockPartialWrites
	m.SockDelays += other.SockDelays
	m.SockWriteErrors += other.SockWriteErrors
	m.SockStaleFrames += other.SockStaleFrames
	m.CandidateTime += other.CandidateTime
	m.LCCTime += other.LCCTime
	m.NLCCTime += other.NLCCTime
	m.VerifyTime += other.VerifyTime
	m.CountTime += other.CountTime
}

// String summarizes the metrics.
func (m *Metrics) String() string {
	return fmt.Sprintf("msgs=%d (cand=%d lcc=%d nlcc=%d verify=%d) tokens=%d cachehits=%d",
		m.TotalMessages(), m.CandidateMessages, m.LCCMessages, m.NLCCMessages,
		m.VerifyMessages, m.TokensInitiated, m.CacheHits)
}

// LevelStats records one edit-distance level of the bottom-up pipeline,
// mirroring the per-level breakdowns of Figs. 6 and 8.
type LevelStats struct {
	// Dist is the edit-distance δ of the level.
	Dist int
	// Prototypes is the number of prototypes searched at this level.
	Prototypes int
	// ActiveVertices is |V*_δ|: vertices matching at least one prototype
	// at this level.
	ActiveVertices int
	// LabelsGenerated is the number of (vertex, prototype) labels set at
	// this level (the bottom row of Fig. 8).
	LabelsGenerated int64
	// Duration is the wall time spent searching this level.
	Duration time.Duration
	// ActiveFraction is the level state's active fraction (vertices plus
	// directed slots over the original graph) before any compaction.
	ActiveFraction float64
	// Compacted reports whether this level searched a compacted view.
	Compacted bool
	// Complete reports whether the level finished. On a full run every
	// level is complete; on a Partial run (budget exhaustion) the completed
	// levels' prototype columns are exact — bit-identical to an unbudgeted
	// run — and the incomplete levels' columns are unknown (all-zero
	// placeholders, never false positives).
	Complete bool
}

// PhaseSummary renders the phase wall times (the paper's Fig. 6 breakdown
// into candidate set, search and verification, plus match counting).
func (m *Metrics) PhaseSummary() string {
	return fmt.Sprintf("candidate=%v lcc=%v nlcc=%v verify=%v count=%v",
		m.CandidateTime.Round(time.Millisecond),
		m.LCCTime.Round(time.Millisecond),
		m.NLCCTime.Round(time.Millisecond),
		m.VerifyTime.Round(time.Millisecond),
		m.CountTime.Round(time.Millisecond))
}
