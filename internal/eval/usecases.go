package eval

import (
	"context"
	"time"

	"approxmatch/internal/core"
)

// UseCaseRow is one prototype of a §5.5 use-case query.
type UseCaseRow struct {
	Dist, Prototype, Vertices int
	Matches                   int64
}

// UseCase is a §5.5 query's per-prototype matches.
type UseCase struct {
	Rows []UseCaseRow
	// Total counts every prototype's matches, Precise only those at δ=0.
	Total, Precise int64
	Wall           time.Duration
}

// SearchUseCase runs a §5.5 query with match counting: RDT1
// (adversarial poster–commenter structures, 5 prototypes) or IMDB1
// (same role in two recent Sport movies, 7 prototypes).
func SearchUseCase(q Query, quick bool) (*UseCase, error) {
	g, tpl, k := q.At(quick)
	cfg := core.DefaultConfig(k)
	cfg.CountMatches = true
	start := time.Now()
	res, err := core.Run(g, tpl, cfg)
	if err != nil {
		return nil, err
	}
	out := &UseCase{Wall: time.Since(start)}
	for pi, p := range res.Set.Protos {
		c := res.Solutions[pi].MatchCount
		out.Total += c
		if p.Dist == 0 {
			out.Precise += c
		}
		out.Rows = append(out.Rows, UseCaseRow{p.Dist, pi, res.Solutions[pi].Verts.Count(), c})
	}
	return out, nil
}

// ExploreLevel is one edit distance of the WDC-4 exploratory search.
type ExploreLevel struct {
	Dist int
	// Masks counts the level's edge-subset prototypes, Classes the
	// isomorphism classes searched.
	Masks, Classes   int
	MatchingVertices int
	Time             time.Duration
}

// Exploration is the §5.5 exploratory search.
type Exploration struct {
	// Masks counts the edge-subset prototypes within the query's k,
	// Classes their isomorphism classes.
	Masks, Classes int
	Levels         []ExploreLevel
	// FoundDist is the first edit distance with matches, -1 for none;
	// MatchingVertices counts the vertices in them.
	FoundDist, MatchingVertices int
}

// Explore runs the §5.5 exploratory search: start from a 6-Clique on the
// frequent org label (WDC-4) and relax top-down until matches appear.
func Explore(quick bool) (*Exploration, error) {
	g, tpl, k := WDC4.At(quick)
	res, err := core.RunTopDownContext(context.Background(), g, tpl, core.DefaultConfig(k), 1)
	if err != nil {
		return nil, err
	}
	out := &Exploration{Masks: res.Set.MaskCount(), Classes: res.Set.Count(), FoundDist: res.FoundDist}
	if res.FoundDist >= 0 {
		out.MatchingVertices = res.MatchingVertices.Count()
	}
	for _, lvl := range res.Levels {
		out.Levels = append(out.Levels, ExploreLevel{lvl.Dist, res.Set.MaskCountAt(lvl.Dist), lvl.Prototypes, lvl.ActiveVertices, lvl.Duration})
	}
	return out, nil
}
