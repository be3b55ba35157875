// Package plan compiles a visual query into the matching order the engine
// runs it under — the "query engine bridge" between what the user draws
// and how the matcher executes it.
//
// Compilation is two stages:
//
//  1. Parse lifts the drawn pattern into an AST with interned label ids
//     (Parse). Interning gives every label a stable integer identity, so
//     all downstream tie-breaks are byte-stable across runs and across
//     the order the user happened to draw nodes in.
//
//  2. RarestFirstOrder turns corpus label statistics (the Stats interface,
//     implemented by gindex over its inverted bitsets) into a
//     connectivity-preserving VF2 matching order that crosses the rarest
//     edges first — the classic "most selective first" join ordering
//     applied to backtracking search. The order changes only how fast VF2
//     runs, never which embeddings exist, so it is always safe to apply.
//
// Every plan runs as one filter-then-VF2 pass under its order
// (StrategyMonolithic). Sub-pattern decomposition and an ANN-first sweep
// were measured against it end to end and removed: decomposed queries
// probed fragment views that new queries almost never reused, and were
// slower at p50 and p90 (DESIGN.md, "Planning contract").
//
// Plans are immutable and safe to share/cache; qcache.PlanKey keys them by
// canonical query code and the index epoch vector so corpus updates
// invalidate exactly the plans whose statistics went stale.
package plan

import (
	"fmt"

	"repro/internal/graph"
)

// Strategy names a physical execution strategy.
type Strategy string

// StrategyMonolithic runs one VF2 per filter candidate, with the compiled
// matching order. It is the only strategy.
const StrategyMonolithic Strategy = "monolithic"

// Config is the compile configuration. No field changes the compiled
// plan; the type remains because callers outside this module still pass
// it to gindex.(*Sharded).CompilePlan.
type Config struct {
	// Deprecated: no strategy uses similarity state any more; the field is
	// ignored.
	ANN bool
	// Deprecated: fragment views were removed with decomposition; the
	// field is ignored.
	HasViewCache bool
}

// Plan is a compiled physical plan. Immutable; safe for concurrent use and
// for caching under qcache.PlanKey.
type Plan struct {
	// Strategy is the execution strategy: always StrategyMonolithic.
	Strategy Strategy
	// Order is the compiled matching order: a permutation of the pattern's
	// nodes, rarest-edge-first and connectivity-preserving
	// (isomorph.Options.Order).
	Order []graph.NodeID
	// EstCandidates estimates how many corpus graphs survive filtering:
	// the corpus size times the selectivity of the rarest edge.
	EstCandidates float64
}

// Compile builds the physical plan for q against a corpus described by st.
func Compile(q *graph.Graph, st Stats) *Plan {
	a := Parse(q)
	n := st.Graphs()
	if n <= 0 {
		n = 1
	}
	minSel := 1.0
	for _, e := range a.Edges {
		if s := float64(edgeRarity(a, st, e)) / float64(n); s < minSel {
			minSel = s
		}
	}
	return &Plan{
		Strategy:      StrategyMonolithic,
		Order:         a.RarestFirstOrder(st),
		EstCandidates: float64(n) * minSel,
	}
}

// String renders a compact human-readable plan summary (trace output).
func (p *Plan) String() string {
	return fmt.Sprintf("%s order=%v est_candidates=%.1f", p.Strategy, p.Order, p.EstCandidates)
}
