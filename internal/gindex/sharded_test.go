package gindex

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/pattern"
)

// randomQueries draws connected subgraph queries from graphs of c.
func randomQueries(rng *rand.Rand, c *graph.Corpus, n int) []*graph.Graph {
	var out []*graph.Graph
	for len(out) < n {
		src := c.Graph(rng.Intn(c.Len()))
		if q := datagen.RandomConnectedSubgraph(rng, src, 3+rng.Intn(5)); q != nil {
			out = append(out, q)
		}
	}
	return out
}

// TestShardedMatchesMonolithic is the core equivalence property: for
// randomized corpora, any shard count, any worker count, and any
// MaxResults budget, Sharded returns the same result set and order as the
// monolithic Index (the K=1 oracle).
func TestShardedMatchesMonolithic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	opts := pattern.MatchOptions()
	for _, corpusN := range []int{1, 3, 37} {
		c := datagen.ChemicalCorpus(int64(corpusN), corpusN, datagen.ChemicalOptions{MinNodes: 8, MaxNodes: 16})
		mono := Build(c)
		queries := randomQueries(rng, c, 8)
		for _, k := range []int{1, 2, 3, 8, 64} {
			for _, workers := range []int{1, 4} {
				sh := BuildSharded(c, k, workers)
				if sh.Len() != c.Len() || sh.NumShards() != k {
					t.Fatalf("k=%d: Len=%d NumShards=%d", k, sh.Len(), sh.NumShards())
				}
				for qi, q := range queries {
					want := mono.Search(q, opts)
					got := sh.Search(q, opts)
					if !reflect.DeepEqual(want.Matches, got.Matches) {
						t.Fatalf("n=%d k=%d w=%d q%d: matches %v vs %v", corpusN, k, workers, qi, got.Matches, want.Matches)
					}
					if got.Candidates != want.Candidates || got.Scanned != want.Scanned ||
						got.Verified != want.Verified || got.Truncated != want.Truncated {
						t.Fatalf("n=%d k=%d w=%d q%d: stats %+v vs %+v", corpusN, k, workers, qi, got, want)
					}
					// Under a budget both must return the same prefix of
					// the unbudgeted answer, in the same order.
					for _, max := range []int{1, 2, 5} {
						bopts := opts
						bopts.MaxResults = max
						bw := mono.Search(q, bopts)
						bg := sh.Search(q, bopts)
						if !reflect.DeepEqual(bw.Matches, bg.Matches) {
							t.Fatalf("n=%d k=%d w=%d q%d max=%d: %v vs %v", corpusN, k, workers, qi, max, bg.Matches, bw.Matches)
						}
						wantPrefix := want.Matches
						if len(wantPrefix) > max {
							wantPrefix = wantPrefix[:max]
						}
						if !reflect.DeepEqual(bw.Matches, wantPrefix) {
							t.Fatalf("budgeted answer %v is not the prefix of %v", bw.Matches, want.Matches)
						}
					}
				}
			}
		}
	}
}

// TestShardedSearchIsDeterministic hammers the budgeted fan-out: the
// shared budget races across worker goroutines, but the returned matches
// must be identical on every run.
func TestShardedSearchIsDeterministic(t *testing.T) {
	c := datagen.ChemicalCorpus(7, 60, datagen.ChemicalOptions{MinNodes: 8, MaxNodes: 16})
	sh := BuildSharded(c, 8, 0)
	rng := rand.New(rand.NewSource(7))
	opts := pattern.MatchOptions()
	opts.MaxResults = 4
	for _, q := range randomQueries(rng, c, 5) {
		first := sh.Search(q, opts)
		for run := 0; run < 20; run++ {
			again := sh.Search(q, opts)
			if !reflect.DeepEqual(first.Matches, again.Matches) {
				t.Fatalf("run %d: %v vs %v", run, again.Matches, first.Matches)
			}
		}
	}
}

// mutateCorpus applies the same batch to a plain corpus the way
// Corpus.Remove/Add do, as the oracle for ApplyBatch's renumbering.
func mutateCorpus(c *graph.Corpus, added []*graph.Graph, removed []string) *graph.Corpus {
	out := graph.NewCorpus()
	rm := map[string]bool{}
	for _, n := range removed {
		rm[n] = true
	}
	c.Each(func(_ int, g *graph.Graph) {
		if !rm[g.Name()] {
			out.MustAdd(g)
		}
	})
	for _, g := range added {
		out.MustAdd(g)
	}
	return out
}

// TestApplyBatchMatchesFreshBuild applies random add/remove batches
// incrementally and checks, after every batch, that the maintained Sharded
// answers exactly like a monolithic index freshly built over the mutated
// corpus — and that only the touched shards were rebuilt.
func TestApplyBatchMatchesFreshBuild(t *testing.T) {
	const k = 6
	rng := rand.New(rand.NewSource(23))
	c := datagen.ChemicalCorpus(1, 40, datagen.ChemicalOptions{MinNodes: 8, MaxNodes: 14})
	extra := datagen.ChemicalCorpus(2, 30, datagen.ChemicalOptions{MinNodes: 8, MaxNodes: 14})
	// Distinct names for the incoming graphs.
	var pool []*graph.Graph
	extra.Each(func(i int, g *graph.Graph) {
		ng := g.Clone()
		ng.SetName("new" + g.Name())
		pool = append(pool, ng)
	})

	sh := BuildSharded(c, k, 0)
	live := c.Clone()
	opts := pattern.MatchOptions()
	for batch := 0; batch < 5 && len(pool) > 0; batch++ {
		// Remove up to 3 random survivors, add up to 4 from the pool.
		var removed []string
		names := live.Names()
		for _, i := range rng.Perm(len(names))[:min(3, len(names))] {
			removed = append(removed, names[i])
		}
		take := min(1+rng.Intn(4), len(pool))
		added := pool[:take]
		pool = pool[take:]

		prevEpochs := sh.Epochs()
		prevShards := make([]*shardCore, k)
		copy(prevShards, sh.shards)
		next, rep, err := sh.ApplyBatch(added, removed)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Added != len(added) || rep.Removed != len(removed) || rep.Shards != k {
			t.Fatalf("report %+v", rep)
		}
		touched := map[int]bool{}
		for _, s := range rep.Rebuilt {
			touched[s] = true
		}
		for s := 0; s < k; s++ {
			if touched[s] {
				if next.Epoch(s) != prevEpochs[s]+1 {
					t.Fatalf("shard %d rebuilt but epoch %d -> %d", s, prevEpochs[s], next.Epoch(s))
				}
			} else {
				if next.Epoch(s) != prevEpochs[s] {
					t.Fatalf("shard %d untouched but epoch bumped", s)
				}
				if next.shards[s] != prevShards[s] {
					t.Fatalf("shard %d untouched but core not shared", s)
				}
			}
		}

		live = mutateCorpus(live, added, removed)
		fresh := Build(live)
		sh = next
		for qi, q := range randomQueries(rng, live, 6) {
			want := fresh.Search(q, opts)
			got := sh.Search(q, opts)
			if !reflect.DeepEqual(want.Matches, got.Matches) || got.Candidates != want.Candidates {
				t.Fatalf("batch %d q%d: %+v vs %+v", batch, qi, got, want)
			}
		}
	}
}

func TestApplyBatchRejectsBadBatches(t *testing.T) {
	c := datagen.ChemicalCorpus(1, 10, datagen.ChemicalOptions{MinNodes: 6, MaxNodes: 10})
	sh := BuildSharded(c, 4, 1)
	if _, _, err := sh.ApplyBatch(nil, []string{"no-such-graph"}); err == nil {
		t.Fatal("removing an unindexed graph must error")
	}
	dup := c.Graph(0).Clone()
	if _, _, err := sh.ApplyBatch([]*graph.Graph{dup}, nil); err == nil {
		t.Fatal("adding a duplicate name must error")
	}
	// Remove-then-readd of the same name within one batch is legal (the
	// MIDAS shape for a replaced graph).
	if _, _, err := sh.ApplyBatch([]*graph.Graph{dup}, []string{dup.Name()}); err != nil {
		t.Fatalf("replace batch: %v", err)
	}
	if _, _, err := sh.ApplyBatch([]*graph.Graph{nil}, nil); err == nil {
		t.Fatal("nil added graph must error")
	}
}

// TestShardPartialsMergeToGlobalAnswer pins the serving layer's cache
// path: per-shard partials obtained independently (as vqiserve caches
// them) merge to exactly the global budgeted answer.
func TestShardPartialsMergeToGlobalAnswer(t *testing.T) {
	c := datagen.ChemicalCorpus(5, 50, datagen.ChemicalOptions{MinNodes: 8, MaxNodes: 16})
	sh := BuildSharded(c, 5, 0)
	mono := Build(c)
	rng := rand.New(rand.NewSource(3))
	ctx := context.Background()
	for _, q := range randomQueries(rng, c, 6) {
		for _, max := range []int{0, 3} {
			opts := pattern.MatchOptions()
			opts.MaxResults = max
			partials := make([]ShardResult, sh.NumShards())
			for s := range partials {
				partials[s] = sh.SearchShardCtx(ctx, s, q, opts)
				if partials[s].Epoch != sh.Epoch(s) {
					t.Fatalf("partial epoch %d vs shard epoch %d", partials[s].Epoch, sh.Epoch(s))
				}
			}
			merged := MergeShardResults(partials, max)
			want := mono.SearchCtx(ctx, q, opts)
			if !reflect.DeepEqual(want.Matches, merged.Matches) {
				t.Fatalf("max=%d: merged %v vs monolithic %v", max, merged.Matches, want.Matches)
			}
		}
	}
}

// TestRebaseAfterRemovalElsewhere: a partial computed before a removal in
// another shard, rebased onto the next generation, equals the partial that
// generation computes itself, and the original is left untouched.
func TestRebaseAfterRemovalElsewhere(t *testing.T) {
	c := datagen.ChemicalCorpus(5, 50, datagen.ChemicalOptions{MinNodes: 8, MaxNodes: 16})
	const k = 4
	sh := BuildSharded(c, k, 1)
	removed := c.Graph(0).Name()
	next, rep, err := sh.ApplyBatch(nil, []string{removed})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	moved := 0
	for _, q := range randomQueries(rand.New(rand.NewSource(5)), c, 6) {
		for s := 0; s < k; s++ {
			if s == rep.Rebuilt[0] {
				continue
			}
			old := sh.SearchShardCtx(ctx, s, q, pattern.MatchOptions())
			before := append([]ShardMatch(nil), old.Matches...)
			got := next.Rebase(old)
			if want := next.SearchShardCtx(ctx, s, q, pattern.MatchOptions()); !reflect.DeepEqual(got.Matches, want.Matches) {
				t.Fatalf("shard %d: rebased %v, fresh %v", s, got.Matches, want.Matches)
			}
			if !reflect.DeepEqual(old.Matches, before) {
				t.Fatalf("shard %d: Rebase modified its argument", s)
			}
			if len(old.Matches) > 0 && old.Matches[0].Pos != got.Matches[0].Pos {
				moved++
			}
		}
	}
	if moved == 0 {
		t.Fatal("no partial changed position; removing the first graph should renumber every shard")
	}
}

func TestShardedSearchCtxCanceledTruncates(t *testing.T) {
	c := datagen.ChemicalCorpus(9, 40, datagen.ChemicalOptions{MinNodes: 10, MaxNodes: 18})
	sh := BuildSharded(c, 4, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := graph.New("q")
	q.AddNode("C")
	q.AddNode("C")
	q.MustAddEdge(0, 1, "s")
	res := sh.SearchCtx(ctx, q, pattern.MatchOptions())
	if !res.Truncated {
		t.Fatal("canceled search must report truncation")
	}
	if res.Verified != 0 {
		t.Fatalf("canceled before any verification, Verified = %d", res.Verified)
	}
}

func TestShardedEmptyCorpus(t *testing.T) {
	sh := BuildSharded(graph.NewCorpus(), 4, 1)
	q := graph.New("q")
	q.AddNode("C")
	res := sh.Search(q, pattern.MatchOptions())
	if len(res.Matches) != 0 || res.Candidates != 0 || res.Scanned != 0 {
		t.Fatalf("empty corpus search = %+v", res)
	}
	g := graph.New("g1")
	g.AddNode("C")
	next, rep, err := sh.ApplyBatch([]*graph.Graph{g}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rebuilt) != 1 {
		t.Fatalf("one added graph must rebuild one shard, got %v", rep.Rebuilt)
	}
	if got := next.Search(q, isomorph.Options{}); len(got.Matches) != 1 || got.Matches[0] != "g1" {
		t.Fatalf("after add: %+v", got)
	}
}

func TestShardOfIsStable(t *testing.T) {
	// The hash partition must be a pure function of (name, k).
	for _, name := range []string{"", "mol0", "mol1", "a-very-long-graph-name"} {
		for _, k := range []int{1, 2, 7, 16} {
			s := ShardOf(name, k)
			if s < 0 || s >= k {
				t.Fatalf("ShardOf(%q,%d) = %d out of range", name, k, s)
			}
			if s != ShardOf(name, k) {
				t.Fatalf("ShardOf(%q,%d) unstable", name, k)
			}
		}
	}
	if ShardOf("mol0", 1) != 0 {
		t.Fatal("k=1 must map everything to shard 0")
	}
}

// TestValidateBatchMatchesApplyBatch pins the durability contract: a
// batch ValidateBatch accepts must apply cleanly, and one it rejects must
// be rejected by ApplyBatch with the same error — so a serving layer can
// validate, durably log, then apply, knowing the logged record will
// always replay.
func TestValidateBatchMatchesApplyBatch(t *testing.T) {
	c := datagen.ChemicalCorpus(1, 12, datagen.ChemicalOptions{MinNodes: 6, MaxNodes: 10})
	sh := BuildSharded(c, 4, 1)
	fresh := datagen.ChemicalCorpus(9, 3, datagen.ChemicalOptions{MinNodes: 5, MaxNodes: 8})
	var adds []*graph.Graph
	fresh.Each(func(_ int, g *graph.Graph) {
		ng := g.Clone()
		ng.SetName("v" + g.Name())
		adds = append(adds, ng)
	})
	dup := c.Graph(0).Clone()
	cases := []struct {
		added   []*graph.Graph
		removed []string
	}{
		{adds, nil},
		{adds, []string{c.Graph(1).Name()}},
		{[]*graph.Graph{dup}, []string{dup.Name()}}, // replace: legal
		{nil, []string{"missing"}},                  // unindexed removal
		{nil, []string{c.Graph(0).Name(), c.Graph(0).Name()}},
		{[]*graph.Graph{dup}, nil}, // duplicate add
		{[]*graph.Graph{nil}, nil},
		{[]*graph.Graph{adds[0], adds[0]}, nil}, // added twice
	}
	for i, tc := range cases {
		verr := sh.ValidateBatch(tc.added, tc.removed)
		_, _, aerr := sh.ApplyBatch(tc.added, tc.removed)
		if (verr == nil) != (aerr == nil) {
			t.Fatalf("case %d: ValidateBatch err=%v, ApplyBatch err=%v", i, verr, aerr)
		}
		if verr != nil && verr.Error() != aerr.Error() {
			t.Fatalf("case %d: error mismatch: %v vs %v", i, verr, aerr)
		}
	}
}

// TestRestoreEpochs pins the recovery path: a fresh build with restored
// epochs is indistinguishable — epochs included — from the instance that
// applied the batches live.
func TestRestoreEpochs(t *testing.T) {
	const k = 5
	c := datagen.ChemicalCorpus(3, 20, datagen.ChemicalOptions{MinNodes: 6, MaxNodes: 10})
	live := BuildSharded(c, k, 1)
	cur := c.Clone()
	fresh := datagen.ChemicalCorpus(8, 6, datagen.ChemicalOptions{MinNodes: 5, MaxNodes: 8})
	var pool []*graph.Graph
	fresh.Each(func(_ int, g *graph.Graph) {
		ng := g.Clone()
		ng.SetName("r" + g.Name())
		pool = append(pool, ng)
	})
	for i := 0; i < 3; i++ {
		added := pool[i*2 : i*2+2]
		removed := []string{cur.Graph(i).Name()}
		next, _, err := live.ApplyBatch(added, removed)
		if err != nil {
			t.Fatal(err)
		}
		live = next
		cur = mutateCorpus(cur, added, removed)
	}

	rebuilt := BuildSharded(cur, k, 1)
	rebuilt.RestoreEpochs(live.Epochs())
	for s := 0; s < k; s++ {
		if rebuilt.Epoch(s) != live.Epoch(s) {
			t.Fatalf("shard %d epoch %d, want %d", s, rebuilt.Epoch(s), live.Epoch(s))
		}
	}
	// Mismatched length must be ignored, not partially applied.
	before := rebuilt.Epochs()
	rebuilt.RestoreEpochs([]uint64{1, 2})
	if !reflect.DeepEqual(rebuilt.Epochs(), before) {
		t.Fatal("RestoreEpochs applied a wrong-length epoch vector")
	}
	// Epochs keep advancing from the restored values.
	next, rep, err := rebuilt.ApplyBatch(nil, []string{cur.Graph(0).Name()})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rep.Rebuilt {
		if next.Epoch(s) != rebuilt.Epoch(s)+1 {
			t.Fatalf("shard %d epoch did not advance from restored value", s)
		}
	}
}
