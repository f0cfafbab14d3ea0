package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"approxmatch/internal/core"
	"approxmatch/internal/datagen"
)

// expRDT1 runs the §5.5 Reddit query: adversarial poster–commenter
// structures with optional author edges (5 prototypes).
func expRDT1(w io.Writer, quick bool) {
	g := reddit(quick)
	tpl := datagen.RDT1()
	cfg := core.DefaultConfig(datagen.RDT1EditDistance)
	cfg.CountMatches = true
	var res *core.Result
	var err error
	elapsed := timed(func() { res, err = core.Run(g, tpl, cfg) })
	if err != nil {
		panic(err)
	}
	var rows [][]string
	var total, precise int64
	for pi, p := range res.Set.Protos {
		c := res.Solutions[pi].MatchCount
		total += c
		if p.Dist == 0 {
			precise += c
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Dist),
			fmt.Sprintf("%d", pi),
			fmt.Sprintf("%d", res.Solutions[pi].Verts.Count()),
			fmt.Sprintf("%d", c),
		})
	}
	table(w, []string{"δ", "prototype", "vertices", "matches"}, rows)
	fmt.Fprintf(w, "\nprototypes: %d (paper: 5) — total matches %d including %d precise — %v\n",
		res.Set.Count(), total, precise, elapsed.Round(time.Millisecond))
}

// expIMDB1 runs the §5.5 IMDb query: same-role-in-two-recent-Sport-movies
// tuples (7 prototypes).
func expIMDB1(w io.Writer, quick bool) {
	g := imdb(quick)
	tpl := datagen.IMDB1()
	cfg := core.DefaultConfig(datagen.IMDB1EditDistance)
	cfg.CountMatches = true
	var res *core.Result
	var err error
	elapsed := timed(func() { res, err = core.Run(g, tpl, cfg) })
	if err != nil {
		panic(err)
	}
	var rows [][]string
	var total, precise int64
	for pi, p := range res.Set.Protos {
		c := res.Solutions[pi].MatchCount
		total += c
		if p.Dist == 0 {
			precise += c
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Dist),
			fmt.Sprintf("%d", pi),
			fmt.Sprintf("%d", res.Solutions[pi].Verts.Count()),
			fmt.Sprintf("%d", c),
		})
	}
	table(w, []string{"δ", "prototype", "vertices", "matches"}, rows)
	fmt.Fprintf(w, "\nprototypes: %d (paper: 7) — total matches %d including %d precise — %v\n",
		res.Set.Count(), total, precise, elapsed.Round(time.Millisecond))
}

// expWDC4 runs the §5.5 exploratory search: start from a 6-Clique on the
// frequent org label and relax until matches appear.
func expWDC4(w io.Writer, quick bool) {
	g := wdc(quick)
	tpl := datagen.WDC4()
	set, err := core.Run(g, tpl, core.Config{EditDistance: 0})
	if err != nil {
		panic(err)
	}
	_ = set
	protoSet, err := core.RunTopDownContext(context.Background(), g, tpl, core.DefaultConfig(4), 1)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(w, "prototype universe within k=4: %d edge subsets (paper: 1,941), folded into %d isomorphism classes\n\n",
		protoSet.Set.MaskCount(), protoSet.Set.Count())
	var rows [][]string
	for _, lvl := range protoSet.Levels {
		rows = append(rows, []string{
			fmt.Sprintf("%d", lvl.Dist),
			fmt.Sprintf("%d", protoSet.Set.MaskCountAt(lvl.Dist)),
			fmt.Sprintf("%d", lvl.Prototypes),
			fmt.Sprintf("%d", lvl.ActiveVertices),
			ms(lvl.Duration),
		})
	}
	table(w, []string{"δ", "edge-subset prototypes", "classes searched", "matching vertices", "time"}, rows)
	if protoSet.FoundDist >= 0 {
		fmt.Fprintf(w, "\nfirst matches at edit distance %d; %d vertices participate (paper: first matches at k=4, 144 vertices)\n",
			protoSet.FoundDist, protoSet.MatchingVertices.Count())
	} else {
		fmt.Fprintln(w, "\nno matches within k=4")
	}
}
