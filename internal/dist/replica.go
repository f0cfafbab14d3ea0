package dist

import (
	"context"
	"fmt"
	"sync"

	"approxmatch/internal/constraint"
	"approxmatch/internal/core"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
)

// ReplicaSet implements the §4/§5.4 "reloading on a smaller deployment"
// flow faithfully: the pruned candidate (or intermediate) subgraph is
// checkpointed, reloaded as an independent graph on each of several small
// deployments, and prototypes are searched across the replicas in parallel.
// Every replica graph is identical to the checkpoint's view graph, so the
// view (shared, read-only, by every replica's goroutine) translates results
// back to the original graph's ids.
type ReplicaSet struct {
	view    *graph.View
	engines []*Engine
}

// NewReplicaSet checkpoints the active subgraph of pruned and reloads it
// onto `replicas` deployments, each with the given per-replica config.
func NewReplicaSet(g *graph.Graph, pruned *core.State, replicas int, cfg Config) (*ReplicaSet, error) {
	if replicas < 1 {
		replicas = 1
	}
	data, vw, err := Checkpoint(g, pruned)
	if err != nil {
		return nil, fmt.Errorf("dist: replica checkpoint: %w", err)
	}
	rs := &ReplicaSet{view: vw}
	for i := 0; i < replicas; i++ {
		e, err := Reload(data, cfg)
		if err != nil {
			return nil, fmt.Errorf("dist: replica %d reload: %w", i, err)
		}
		rs.engines = append(rs.engines, e)
	}
	return rs, nil
}

// Replicas returns the number of deployments.
func (rs *ReplicaSet) Replicas() int { return len(rs.engines) }

// SubgraphSize returns the checkpointed subgraph's vertex count.
func (rs *ReplicaSet) SubgraphSize() int { return rs.view.NumVertices() }

// Search runs the given templates across the replicas (each replica takes
// the next unsearched template — the paper's batched parallel prototype
// search) and returns solutions in original-graph coordinates, index-aligned
// with templates.
func (rs *ReplicaSet) Search(templates []*pattern.Template, freq constraint.LabelFreq, opts Options) []*core.Solution {
	out := make([]*core.Solution, len(templates))
	next := make(chan int, len(templates))
	for i := range templates {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for _, e := range rs.engines {
		wg.Add(1)
		go func(e *Engine) {
			defer wg.Done()
			// The replica IS the pruned subgraph, so each search starts from
			// the whole replica graph; no candidate-set phase is needed.
			full := core.NewFullState(e.Graph())
			satisfied := make([]bool, e.Graph().NumVertices())
			for i := range next {
				var m core.Metrics
				sol := e.searchPrototype(context.Background(), full, templates[i], freq, nil, satisfied, opts.CountMatches, &m)
				sol.Verts, sol.Edges = rs.view.OrigBits(sol.Verts, sol.Edges)
				out[i] = sol
			}
		}(e)
	}
	wg.Wait()
	return out
}
