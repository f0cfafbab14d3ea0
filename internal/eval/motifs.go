package eval

import (
	"errors"
	"fmt"
	"time"

	"approxmatch/internal/core"
	"approxmatch/internal/motif"
	"approxmatch/internal/tle"
)

// MotifCell is one motif size on one graph of the §5.6 table.
type MotifCell struct {
	// OOM reports that TLE exceeded its embedding budget, the analogue of
	// Arabesque's out-of-memory failure; TLE is then unset.
	OOM      bool
	TLE, HGT time.Duration
}

// MotifRow is one graph of the §5.6 table: 3- and 4-motif counting.
type MotifRow struct {
	Graph string
	Edges int
	Cells [2]MotifCell
}

// MotifComparison is the §5.6 table.
type MotifComparison struct {
	Rows []MotifRow
	// Budget is TLE's embedding budget.
	Budget int64
}

// Arabesque counts motifs with the TLE (Arabesque-style,
// embedding-materializing) baseline and with the matching pipeline, on
// graphs echoing the paper's CiteSeer → LiveJournal ladder. It returns an
// error if the two counts differ wherever TLE completes.
func Arabesque(quick bool) (*MotifComparison, error) {
	out := &MotifComparison{Budget: int64(size(quick, 6_000_000, 1_500_000))}
	for _, d := range []*Dataset{CiteSeer, Mico, Patent, YouTube, LiveJournal} {
		g := d.Graph(quick)
		row := MotifRow{Graph: d.Name, Edges: g.NumEdges()}
		for i, motifSize := range []int{3, 4} {
			start := time.Now()
			tleCounts, _, tleErr := tle.CountMotifs(g, motifSize, tle.Config{MaxEmbeddings: out.Budget})
			tleT := time.Since(start)
			start = time.Now()
			hgtCounts, _, err := motif.PipelineCounts(g, motifSize, core.DefaultConfig(0))
			if err != nil {
				return nil, err
			}
			cell := MotifCell{HGT: time.Since(start)}
			switch {
			case errors.Is(tleErr, tle.ErrOutOfMemory):
				cell.OOM = true
			case tleErr != nil:
				return nil, tleErr
			default:
				cell.TLE = tleT
				for code, c := range hgtCounts {
					if tleCounts[code] != c {
						return nil, fmt.Errorf("%s %d-motif: count mismatch", d.Name, motifSize)
					}
				}
			}
			row.Cells[i] = cell
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}
