package gindex

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ann"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/pattern"
	"repro/internal/plan"
)

// planQueries draws connected subgraph queries large enough for the
// compiled order to matter (edge counts land in the 4..16 range).
func planQueries(rng *rand.Rand, c *graph.Corpus, n, minNodes, maxNodes int) []*graph.Graph {
	var out []*graph.Graph
	for len(out) < n {
		src := c.Graph(rng.Intn(c.Len()))
		size := minNodes + rng.Intn(maxNodes-minNodes+1)
		if q := datagen.RandomConnectedSubgraph(rng, src, size); q != nil && q.NumEdges() >= 2 {
			out = append(out, q)
		}
	}
	return out
}

// TestSearchPlanMatchesOracle is the plan/oracle equivalence property: at
// every shard count, worker count, MaxResults budget and matching
// semantics (monomorphism and induced), SearchPlan under the compiled
// order returns byte-identical matches to the monolithic K=1 Index
// oracle.
func TestSearchPlanMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, corpusN := range []int{3, 60} {
		c := datagen.ChemicalCorpus(int64(corpusN), corpusN, datagen.ChemicalOptions{MinNodes: 10, MaxNodes: 24})
		mono := Build(c)
		queries := planQueries(rng, c, 10, 5, 14)
		for _, induced := range []bool{false, true} {
			opts := pattern.MatchOptions()
			opts.Induced = induced
			for _, k := range []int{1, 3, 5} {
				for _, workers := range []int{1, 4} {
					sh := BuildShardedANN(c, k, workers, ann.NewConfig())
					for qi, q := range queries {
						want := mono.Search(q, opts)
						pl := sh.CompilePlan(q, plan.Config{})
						for _, max := range []int{0, 1, 5} {
							bopts := opts
							bopts.MaxResults = max
							got := sh.SearchPlan(context.Background(), q, bopts, pl, PlanOptions{})
							wantM := want.Matches
							if max > 0 && len(wantM) > max {
								wantM = wantM[:max]
							}
							if !reflect.DeepEqual(got.Matches, wantM) {
								t.Fatalf("n=%d induced=%v k=%d w=%d q%d max=%d:\n got %v\nwant %v",
									corpusN, induced, k, workers, qi, max, got.Matches, wantM)
							}
							if got.Truncated {
								t.Fatalf("n=%d induced=%v k=%d q%d: unexpected Truncated", corpusN, induced, k, qi)
							}
						}
					}
				}
			}
		}
	}
}

// TestSearchPlanOrderExercised guards the test above against silently
// testing only the matcher's own per-target order: the compiled order
// must be a permutation the matcher adopts, visible as a different VF2
// step count on some (query, graph) pair.
func TestSearchPlanOrderExercised(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	c := datagen.ChemicalCorpus(7, 50, datagen.ChemicalOptions{MinNodes: 12, MaxNodes: 28})
	sh := BuildSharded(c, 3, 2)
	opts := pattern.MatchOptions()
	differ := 0
	for _, q := range planQueries(rng, c, 20, 5, 14) {
		pl := sh.CompilePlan(q, plan.Config{})
		if pl.Strategy != plan.StrategyMonolithic {
			t.Fatalf("strategy %s, want monolithic", pl.Strategy)
		}
		ordered := opts
		ordered.Order = pl.Order
		for gi := 0; gi < c.Len(); gi++ {
			g := c.Graph(gi)
			if isomorph.Count(q, g, ordered).Steps != isomorph.Count(q, g, opts).Steps {
				differ++
			}
		}
	}
	if differ == 0 {
		t.Fatal("the compiled order never changed a VF2 step count; the oracle property is not exercising Order")
	}
}

// TestPlanStatsCounts: PlanStats aggregates must equal brute-force
// document frequencies, at any shard count, and match the monolithic
// Index's stats.
func TestPlanStatsCounts(t *testing.T) {
	c := datagen.ChemicalCorpus(13, 40, datagen.ChemicalOptions{MinNodes: 8, MaxNodes: 20})
	wantNode := map[string]int{}
	wantEdge := map[string]int{}
	wantTrip := map[[3]string]int{}
	c.Each(func(gi int, g *graph.Graph) {
		seenN, seenE, seenT := map[string]bool{}, map[string]bool{}, map[[3]string]bool{}
		for v := 0; v < g.NumNodes(); v++ {
			seenN[g.NodeLabel(v)] = true
		}
		for _, e := range g.Edges() {
			seenE[e.Label] = true
			a, b := g.NodeLabel(e.U), g.NodeLabel(e.V)
			if a > b {
				a, b = b, a
			}
			seenT[[3]string{a, e.Label, b}] = true
		}
		for l := range seenN {
			wantNode[l]++
		}
		for l := range seenE {
			wantEdge[l]++
		}
		for tr := range seenT {
			wantTrip[tr]++
		}
	})
	for _, k := range []int{1, 4, 7} {
		st := BuildSharded(c, k, 2).PlanStats()
		if st.Graphs() != c.Len() {
			t.Fatalf("k=%d: Graphs=%d want %d", k, st.Graphs(), c.Len())
		}
		for l, n := range wantNode {
			if got := st.NodeLabelGraphs(l); got != n {
				t.Fatalf("k=%d: NodeLabelGraphs(%q)=%d want %d", k, l, got, n)
			}
		}
		for l, n := range wantEdge {
			if got := st.EdgeLabelGraphs(l); got != n {
				t.Fatalf("k=%d: EdgeLabelGraphs(%q)=%d want %d", k, l, got, n)
			}
		}
		for tr, n := range wantTrip {
			if got := st.TripleGraphs(tr[0], tr[1], tr[2]); got != n {
				t.Fatalf("k=%d: TripleGraphs(%v)=%d want %d", k, tr, got, n)
			}
		}
		if st.NodeLabelGraphs("no-such-label") != 0 {
			t.Fatalf("k=%d: absent label should count 0", k)
		}
	}
	mst := Build(c).PlanStats()
	if mst.Graphs() != c.Len() || mst.NodeLabelGraphs("C") != wantNode["C"] {
		t.Fatal("Index.PlanStats disagrees with brute force")
	}
}

// pollCtx is a context whose Err reports context.Canceled from the
// (n+1)th call on, whichever goroutine makes it: a cancellation that
// lands after exactly n polls, independent of host speed.
type pollCtx struct {
	context.Context
	n atomic.Int64
}

func (c *pollCtx) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestSearchPlanDeadlineTruncates: a context that dies part-way through a
// planned search surfaces Truncated with a sound, corpus-ordered subset of
// the oracle's answer — never a wrong or fabricated match.
func TestSearchPlanDeadlineTruncates(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	c := datagen.ChemicalCorpus(23, 50, datagen.ChemicalOptions{MinNodes: 12, MaxNodes: 28})
	opts := pattern.MatchOptions()
	for _, workers := range []int{1, 3} {
		sh := BuildSharded(c, 3, workers)
		for qi, q := range planQueries(rng, c, 5, 3, 8) {
			want := sh.SearchCtx(context.Background(), q, opts).Matches
			pl := sh.CompilePlan(q, plan.Config{})
			for _, polls := range []int64{0, 4, 40} {
				ctx := &pollCtx{Context: context.Background()}
				ctx.n.Store(polls)
				got := sh.SearchPlan(ctx, q, opts, pl, PlanOptions{})
				if polls == 0 && !got.Truncated {
					t.Fatalf("w=%d q%d: a dead context must surface Truncated", workers, qi)
				}
				if !got.Truncated && !reflect.DeepEqual(got.Matches, want) {
					t.Fatalf("w=%d q%d polls=%d: complete answer %v, want %v", workers, qi, polls, got.Matches, want)
				}
				// Every returned match is a true match, in corpus order.
				last := -1
				for _, m := range got.Matches {
					i := slices.Index(want, m)
					if i <= last {
						t.Fatalf("w=%d q%d polls=%d: %q fabricated or out of order in %v (oracle %v)",
							workers, qi, polls, m, got.Matches, want)
					}
					last = i
				}
			}
		}
	}
}

// TestSearchPlanConcurrentCtx hammers one shared plan (shared result
// budgets, lazily built label indexes) from many goroutines under -race,
// with some contexts canceled mid-flight. Complete runs must all agree
// with the oracle.
func TestSearchPlanConcurrentCtx(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	c := datagen.ChemicalCorpus(29, 40, datagen.ChemicalOptions{MinNodes: 12, MaxNodes: 24})
	sh := BuildSharded(c, 4, 4)
	q := planQueries(rng, c, 1, 9, 14)[0]
	pl := sh.CompilePlan(q, plan.Config{})
	opts := pattern.MatchOptions()
	want := sh.SearchCtx(context.Background(), q, opts)

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if i%4 == 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(i)*100*time.Microsecond)
				defer cancel()
			}
			got := sh.SearchPlan(ctx, q, opts, pl, PlanOptions{})
			if got.Truncated {
				return // canceled mid-flight: sound subset by contract
			}
			if !reflect.DeepEqual(got.Matches, want.Matches) {
				errs <- "concurrent SearchPlan diverged from oracle"
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestSearchPlanNilAndMonolithic: a nil plan falls back to SearchCtx; a
// compiled plan, whatever configuration it was compiled with, is
// monolithic and applies its order without changing answers.
func TestSearchPlanNilAndMonolithic(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	c := datagen.ChemicalCorpus(31, 30, datagen.ChemicalOptions{MinNodes: 8, MaxNodes: 18})
	sh := BuildShardedANN(c, 3, 2, ann.NewConfig())
	opts := pattern.MatchOptions()
	for _, q := range planQueries(rng, c, 6, 4, 10) {
		want := sh.SearchCtx(context.Background(), q, opts)
		if got := sh.SearchPlan(context.Background(), q, opts, nil, PlanOptions{}); !reflect.DeepEqual(got.Matches, want.Matches) {
			t.Fatalf("nil plan diverged: %v vs %v", got.Matches, want.Matches)
		}
		for _, cfg := range []plan.Config{{}, {ANN: true, HasViewCache: true}} {
			pl := sh.CompilePlan(q, cfg)
			if pl.Strategy != plan.StrategyMonolithic {
				t.Fatalf("cfg %+v: strategy %s, want monolithic", cfg, pl.Strategy)
			}
			if got := sh.SearchPlan(context.Background(), q, opts, pl, PlanOptions{}); !reflect.DeepEqual(got.Matches, want.Matches) {
				t.Fatalf("monolithic plan diverged: %v vs %v", got.Matches, want.Matches)
			}
		}
	}
}
