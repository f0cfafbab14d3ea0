package main

import (
	"fmt"
	"io"
	"time"

	"approxmatch/internal/eval"
)

func printDatasets(w io.Writer, quick bool) error {
	var rows [][]string
	for _, r := range eval.Inventory(quick) {
		s := r.Stats
		rows = append(rows, cells(r.Name, r.Kind, s.NumVertices, s.NumEdges, s.MaxDegree,
			fmt.Sprintf("%.1f", s.AvgDegree), fmt.Sprintf("%.1f", s.StdevDegree), s.NumLabels))
	}
	table(w, []string{"dataset", "type", "|V|", "|E|", "dmax", "davg", "dstdev", "labels"}, rows)
	return nil
}

func printFig4(w io.Writer, quick bool) error {
	res, err := eval.Fig4(quick)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, r := range res {
		rows = append(rows, cells(r.Scale, r.Ranks, r.Edges, r.Prototypes, ms(r.Wall), r.MaxWorkPerRank,
			fmt.Sprintf("%.2f", float64(r.Messages)/float64(r.Edges)), r.MatchingVertices))
	}
	table(w, []string{"R-MAT scale", "ranks", "|E|", "#p", "wall", "max work/rank", "msgs per edge", "matching vertices (Σ protos)"}, rows)
	fmt.Fprintln(w, "\nWeak-scaling criterion: 'max work/rank' and 'msgs per edge' stay roughly flat as scale and ranks double together (the paper's flat runtime line).")
	return nil
}

// printFig6 prints one strong-scaling table per query. Every simulated rank
// is a goroutine on this host's cores, so wall time does not shrink as
// ranks grow; the modeled speedup carries the scaling signal.
func printFig6(w io.Writer, quick bool) error {
	res, err := eval.Fig6(quick)
	if err != nil {
		return err
	}
	for _, s := range res {
		var rows [][]string
		for _, r := range s.Rows {
			var levels string
			for _, lvl := range r.Levels {
				levels += fmt.Sprintf("δ%d:%s ", lvl.Dist, lvl.Duration.Round(time.Millisecond))
			}
			rows = append(rows, cells(r.Ranks, r.Prototypes, ms(r.Wall), levels, fmt.Sprintf("%.2fx", r.ModeledSpeedup)))
		}
		fmt.Fprintf(w, "\n**%s** (k=%d):\n\n", s.Query, s.K)
		table(w, []string{"ranks", "#p", "wall (ranks share the host's cores)", "per-level", "modeled speedup vs smallest"}, rows)
	}
	return nil
}

func printFig7(w io.Writer, quick bool) error {
	res, err := eval.Fig7(quick)
	if err != nil {
		return err
	}
	var rows [][]string
	var totalSpeedup float64
	for _, r := range res {
		k := fmt.Sprint(r.K)
		if r.AllEdges {
			k += " (all)"
		}
		totalSpeedup += float64(r.Naive) / float64(r.HGT)
		rows = append(rows, cells(r.Query, r.Edges, k, ms(r.Naive), ms(r.HGT), speedup(r.Naive, r.HGT)))
	}
	table(w, []string{"pattern (graph)", "|E|", "k", "naïve", "HGT", "speedup"}, rows)
	fmt.Fprintf(w, "\naverage speedup: %.1fx (paper reports 3.8x average)\n", totalSpeedup/float64(len(rows)))
	return nil
}

func printFig8(w io.Writer, quick bool) error {
	res, err := eval.Fig8(quick)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, r := range res {
		rows = append(rows, cells(r.Dist, r.Prototypes, r.ActiveVertices, r.Labels, ms(r.Naive), ms(r.X), ms(r.Y), ms(r.Z)))
	}
	table(w, []string{"k", "#p_k", "|V*_k|", "labels", "naïve (est/level)", "X: reduction", "Y: +recycling", "Z: +parallel"}, rows)
	return nil
}

func printFig9a(w io.Writer, quick bool) error {
	res, err := eval.Fig9a(quick)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, r := range res {
		rows = append(rows, cells(r.Query, fmt.Sprintf("%.2f", r.ImbalanceNLB), fmt.Sprintf("%.2f", r.ImbalanceLB),
			ms(r.WallNLB), ms(r.WallLB), fmt.Sprintf("%.2fx", r.ImbalanceNLB/r.ImbalanceLB)))
	}
	table(w, []string{"pattern", "imbalance NLB (max/mean)", "imbalance LB", "wall NLB", "wall LB", "balance gain"}, rows)
	return nil
}

func printFig9b(w io.Writer, quick bool) error {
	constraints, err := eval.ConstraintOrdering(quick)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, r := range constraints {
		rows = append(rows, cells(r.Query, r.TemplateOrder, r.FrequencyOrder, fmt.Sprintf("%.2fx", ratio(r.TemplateOrder, r.FrequencyOrder))))
	}
	fmt.Fprintln(w, "**Constraint ordering (rare labels first):** NLCC token messages")
	fmt.Fprintln(w)
	table(w, []string{"pattern", "template order", "frequency order", "reduction"}, rows)

	protos, err := eval.OrderPrototypes(quick)
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "**Prototype ordering (overlap expensive searches, 4-way parallel):**")
	fmt.Fprintln(w)
	table(w, []string{"ordering", "wall", "rank-seconds"}, [][]string{
		cells("natural", ms(protos.Natural.Wall), fmt.Sprintf("%.2f", protos.Natural.RankSeconds)),
		cells("expensive-first", ms(protos.ExpensiveFirst.Wall), fmt.Sprintf("%.2f", protos.ExpensiveFirst.RankSeconds)),
	})

	// A divergent reproduction: see the note printed below.
	enum, err := eval.EnumerateMatches(quick)
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "**Match enumeration for edit-distance matching (4-Motif, YouTube-like):**")
	fmt.Fprintln(w)
	table(w, []string{"strategy", "search probes (≈ messages)", "time"}, [][]string{
		cells("re-enumerate every prototype", enum.Direct.Probes, ms(enum.Direct.Time)),
		cells("extend δ+1 matches by one edge", enum.Extended.Probes, ms(enum.Extended.Time)),
	})
	fmt.Fprintf(w, "\nratio: %.1fx — DIVERGES from the paper's 3.9x. Explanation: this engine builds an exact solution subgraph per prototype before enumerating, so re-enumeration explores almost nothing wasted; the paper's gain arises at 200B+ matches where fresh per-prototype searches are distributed token storms over barely-prunable unlabeled graphs. Both code paths are implemented and verified to produce identical counts.\n",
		ratio(enum.Direct.Probes, enum.Extended.Probes))
	return nil
}

func printDeployments(w io.Writer, quick bool) error {
	res, err := eval.DeploymentSizes(quick)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, r := range res.Rows {
		rows = append(rows, cells(r.Mode, fmt.Sprintf("%d x %d ranks", r.Deployments, r.RanksEach), ms(r.Wall), fmt.Sprintf("%.2f", r.RankSeconds)))
	}
	rows = append(rows, cells("checkpoint+reload",
		fmt.Sprintf("4 replicas x 4 ranks over a %d-vertex reload", res.ReloadVertices), ms(res.ReloadWall), "—"))
	table(w, []string{"mode", "deployment", "wall (time-to-solution)", "rank-seconds (CPU cost)"}, rows)
	fmt.Fprintln(w, "\nShape: wide single deployments burn CPU for little wall-time gain; small replicated deployments win CPU cost (the paper's 2-node row), parallel replicas win time-to-solution (the paper's 4-node row).")
	return nil
}

func printRDT1(w io.Writer, quick bool) error { return printUseCase(w, eval.RDT1, 5, quick) }

func printIMDB1(w io.Writer, quick bool) error { return printUseCase(w, eval.IMDB1, 7, quick) }

// printUseCase prints a §5.5 query's matches per prototype; paperProtos is
// the prototype count the paper reports for it.
func printUseCase(w io.Writer, q eval.Query, paperProtos int, quick bool) error {
	res, err := eval.SearchUseCase(q, quick)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, r := range res.Rows {
		rows = append(rows, cells(r.Dist, r.Prototype, r.Vertices, r.Matches))
	}
	table(w, []string{"δ", "prototype", "vertices", "matches"}, rows)
	fmt.Fprintf(w, "\nprototypes: %d (paper: %d) — total matches %d including %d precise — %v\n",
		len(res.Rows), paperProtos, res.Total, res.Precise, res.Wall.Round(time.Millisecond))
	return nil
}

func printWDC4(w io.Writer, quick bool) error {
	res, err := eval.Explore(quick)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "prototype universe within k=4: %d edge subsets (paper: 1,941), folded into %d isomorphism classes\n\n",
		res.Masks, res.Classes)
	var rows [][]string
	for _, lvl := range res.Levels {
		rows = append(rows, cells(lvl.Dist, lvl.Masks, lvl.Classes, lvl.MatchingVertices, ms(lvl.Time)))
	}
	table(w, []string{"δ", "edge-subset prototypes", "classes searched", "matching vertices", "time"}, rows)
	if res.FoundDist >= 0 {
		fmt.Fprintf(w, "\nfirst matches at edit distance %d; %d vertices participate (paper: first matches at k=4, 144 vertices)\n",
			res.FoundDist, res.MatchingVertices)
	} else {
		fmt.Fprintln(w, "\nno matches within k=4")
	}
	return nil
}

func printArabesque(w io.Writer, quick bool) error {
	res, err := eval.Arabesque(quick)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, r := range res.Rows {
		row := cells(r.Graph, r.Edges)
		for _, c := range r.Cells {
			tle := "OOM"
			if !c.OOM {
				tle = ms(c.TLE)
			}
			row = append(row, tle, ms(c.HGT))
		}
		rows = append(rows, row)
	}
	table(w, []string{"graph", "|E|", "TLE 3-Motif", "HGT 3-Motif", "TLE 4-Motif", "HGT 4-Motif"}, rows)
	fmt.Fprintf(w, "\nTLE embedding budget: %d (exceeding it = the paper's Arabesque OOM on LiveJournal 4-Motif). Counts verified equal wherever TLE completes.\n", res.Budget)
	return nil
}

func printMessages(w io.Writer, quick bool) error {
	m, err := eval.MessageAnalysis(quick)
	if err != nil {
		return err
	}
	table(w, []string{"", "naïve", "HGT", "improvement"}, [][]string{
		cells("total messages", m.Naive, m.HGT, fmt.Sprintf("%.1fx", float64(m.Naive)/float64(m.HGT))),
		{"% remote (dist engine)", "—", fmt.Sprintf("%.1f%%", 100*float64(m.Remote)/float64(m.Total)), ""},
		{"% due to max-candidate set", "n/a", fmt.Sprintf("%.1f%%", 100*float64(m.HGTCandidate)/float64(m.HGT)), ""},
		{"time", ms(m.NaiveTime), ms(m.HGTTime), speedup(m.NaiveTime, m.HGTTime)},
	})
	return nil
}

func printFig11(w io.Writer, quick bool) error {
	m, err := eval.Fig11(quick)
	if err != nil {
		return err
	}
	all := m.Topology + m.State()
	pct := func(x int64) string { return fmt.Sprintf("%.1f%%", 100*float64(x)/float64(all)) }
	fmt.Fprintln(w, "**(a) Memory breakdown (HGT, WDC-2):**")
	fmt.Fprintln(w)
	table(w, []string{"component", "bytes", "share"}, [][]string{
		cells("graph topology (CSR offsets+adjacency+labels)", m.Topology, pct(m.Topology)),
		cells("per-vertex match vectors ρ", m.Rho, pct(m.Rho)),
		cells("candidate masks ω (8B/vertex)", m.Omega, pct(m.Omega)),
		cells("edge state ε (1 bit/directed edge)", m.EdgeState, pct(m.EdgeState)),
		cells("per-prototype solution subgraphs", m.Solutions, pct(m.Solutions)),
	})
	fmt.Fprintf(w, "\ntopology share: %.0f%% (paper reports ~86%% topology / 14%% state at its scale)\n",
		100*float64(m.Topology)/float64(all))

	fmt.Fprintln(w)
	fmt.Fprintf(w, "**(b) Peak state, naïve vs HGT (dynamic ∝ message volume, %d B/message):**\n", eval.BytesPerMessage)
	fmt.Fprintln(w)
	table(w, []string{"", "topology", "static state", "dynamic (messages)"}, [][]string{
		cells("naïve", m.Topology, m.Static, m.NaiveDynamic),
		cells("HGT-C (candidate set)", m.Topology, m.Static, m.HGTCandidate),
		cells("HGT-P (prototype search)", m.Topology, m.Static, m.HGTSearch),
	})
	if m.HGTSearch > 0 {
		fmt.Fprintf(w, "\nHGT-P dynamic-state improvement over naïve: %.1fx (paper reports ~4.6x)\n",
			float64(m.NaiveDynamic)/float64(m.HGTSearch))
	}
	return nil
}

func printFig12(w io.Writer, quick bool) error {
	res, err := eval.Fig12(quick)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, r := range res.Rows {
		rows = append(rows, cells(r.Nodes, r.RanksPerNode, fmt.Sprintf("%.0f", r.Modeled), ms(r.Measured)))
	}
	rows[res.Best][2] += " ← best"
	table(w, []string{"nodes", "ranks/node", "modeled time (arb. units)", "measured wall (latency-injected)"}, rows)
	fmt.Fprintf(w, "\ntotal messages %d, %.1f%% remote. Modeled shape: extremes lose (oversubscription on one node; all-network with one rank per node) — the paper's Fig. 12 U-curve. The measured column shows the network side of the curve (latency exposure growing as locality drops); the one-node compute-contention arm needs real cores.\n",
		res.Messages, 100*float64(res.Remote)/float64(res.Messages))
	return nil
}
