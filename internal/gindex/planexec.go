package gindex

// Plan execution: runs a compiled plan (internal/plan) against a Sharded
// index. Every plan is one filter-then-VF2 pass — the budgeted shard
// fan-out of SearchCtx — with VF2 running under the plan's compiled
// rarest-edge-first matching order. The order changes how many steps VF2
// takes, never which graphs match, so the result is byte-identical to
// SearchCtx with the same options at any shard count, worker count and
// MaxResults budget.

import (
	"context"

	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/plan"
	"repro/internal/qcache"
)

// PlanOptions carries the executor's optional collaborators.
type PlanOptions struct {
	// Deprecated: fragment views were removed with plan decomposition; the
	// field is ignored. It remains because callers outside this module
	// still set it.
	Views *qcache.Cache[ShardResult]
}

// CompilePlan compiles q against this index's label statistics. cfg does
// not change the plan (see plan.Config).
func (sh *Sharded) CompilePlan(q *graph.Graph, cfg plan.Config) *plan.Plan {
	return plan.Compile(q, sh.PlanStats())
}

// SearchPlan runs q under the plan's matching order; a nil plan runs the
// default order. The result equals SearchCtx's with the same options.
func (sh *Sharded) SearchPlan(ctx context.Context, q *graph.Graph, opts isomorph.Options, pl *plan.Plan, po PlanOptions) Result {
	if pl != nil {
		opts.Order = pl.Order
	}
	return sh.SearchCtx(ctx, q, opts)
}
