package isomorph

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// orderedLabels runs prepare() on (pattern, target) and returns the label
// sequence of the computed matching order — white-box access for the
// determinism regression.
func orderedLabels(p, t *graph.Graph, opts Options) []string {
	m := &matcher{p: p, t: t, opts: opts}
	m.prepare()
	out := make([]string, len(m.order))
	for i, v := range m.order {
		out[i] = p.NodeLabel(v)
	}
	return out
}

// TestPrepareTieBreakByLabel is the candidate-order determinism
// regression: when two pattern nodes tie on label rarity AND degree, the
// matching order must break the tie by label (equivalently, by interned
// label id — the intern table is sorted, so string order and id order
// agree), not by node insertion order. Two drawings of the same pattern
// must therefore produce identical ordered label sequences.
func TestPrepareTieBreakByLabel(t *testing.T) {
	target := graph.New("t")
	// One node of each label: all pattern labels tie on rarity (freq 1).
	for _, l := range []string{"A", "B", "C"} {
		target.AddNode(l)
	}
	target.AddEdge(0, 1, "x")
	target.AddEdge(1, 2, "x")
	target.AddEdge(0, 2, "x")

	mk := func(perm []string) *graph.Graph {
		g := graph.New("p")
		for _, l := range perm {
			g.AddNode(l)
		}
		// Triangle: every node has degree 2 — degree never breaks the tie.
		g.AddEdge(0, 1, "x")
		g.AddEdge(1, 2, "x")
		g.AddEdge(0, 2, "x")
		return g
	}
	var want []string
	for _, perm := range [][]string{
		{"A", "B", "C"}, {"C", "A", "B"}, {"B", "C", "A"}, {"C", "B", "A"},
	} {
		got := orderedLabels(mk(perm), target, Options{})
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("drawing %v ordered labels %v, want %v — tie-break depends on insertion order", perm, got, want)
		}
	}
	if want[0] != "A" {
		t.Fatalf("tie-break should pick the smallest label first, got %v", want)
	}
}

// TestOptionsOrderEquivalence: any permutation supplied via Options.Order
// yields exactly the embeddings the heuristic order finds — the matching
// order changes Steps, never the answer.
func TestOptionsOrderEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		target := randomGraph(rng, 12, 20)
		pattern := randomGraph(rng, 4, 5)
		base := Count(pattern, target, Options{})
		n := pattern.NumNodes()
		perm := rng.Perm(n)
		got := Count(pattern, target, Options{Order: perm})
		if got.Embeddings != base.Embeddings {
			t.Fatalf("trial %d: order %v found %d embeddings, heuristic %d",
				trial, perm, got.Embeddings, base.Embeddings)
		}
		// Enumerated mappings must be the same set.
		collect := func(opts Options) map[string]bool {
			set := map[string]bool{}
			Enumerate(pattern, target, opts, func(m []graph.NodeID) bool {
				key := ""
				for _, v := range m {
					key += string(rune('a'+v)) + ","
				}
				set[key] = true
				return true
			})
			return set
		}
		if a, b := collect(Options{}), collect(Options{Order: perm}); !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d: embedding sets differ under order %v", trial, perm)
		}
	}
}

// TestOptionsOrderInvalidIgnored: non-permutations (wrong length,
// out-of-range, duplicates) fall back to the heuristic instead of
// corrupting the search.
func TestOptionsOrderInvalidIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	target := randomGraph(rng, 10, 18)
	pattern := randomGraph(rng, 4, 4)
	base := Count(pattern, target, Options{})
	for _, bad := range [][]graph.NodeID{
		{0},
		{0, 1, 2, 99},
		{0, 0, 1, 2},
		{-1, 0, 1, 2},
		{0, 1, 2, 3, 4},
	} {
		got := Count(pattern, target, Options{Order: bad})
		if got.Embeddings != base.Embeddings {
			t.Fatalf("invalid order %v changed the answer: %d vs %d",
				bad, got.Embeddings, base.Embeddings)
		}
	}
}

// verifyMapping is the brute-force embedding check the tests hold
// Enumerate to: mapping (pattern node -> target node) is injective, keeps
// node and edge labels compatible and every pattern edge present, and —
// under induced semantics — maps no two non-adjacent pattern nodes onto
// adjacent target nodes.
func verifyMapping(pattern, target *graph.Graph, mapping []graph.NodeID, induced bool) bool {
	n := pattern.NumNodes()
	if len(mapping) != n {
		return false
	}
	used := make(map[graph.NodeID]bool, n)
	for pv, tv := range mapping {
		if tv < 0 || tv >= target.NumNodes() || used[tv] {
			return false
		}
		used[tv] = true
		if !labelMatch(pattern.NodeLabel(pv), target.NodeLabel(tv)) {
			return false
		}
	}
	for _, pe := range pattern.Edges() {
		te, ok := target.EdgeBetween(mapping[pe.U], mapping[pe.V])
		if !ok || !labelMatch(pe.Label, target.EdgeLabel(te)) {
			return false
		}
	}
	if induced {
		for pu := 0; pu < n; pu++ {
			for pv := pu + 1; pv < n; pv++ {
				if !pattern.HasEdge(pu, pv) && target.HasEdge(mapping[pu], mapping[pv]) {
					return false
				}
			}
		}
	}
	return true
}

// TestVerifyMapping: every mapping Enumerate reports, monomorphism and
// induced, passes the brute-force check, and the check rejects corrupted
// mappings and a chord under induced semantics.
func TestVerifyMapping(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	verified := 0
	for trial := 0; trial < 40; trial++ {
		target := randomGraph(rng, 10, 16)
		pattern := randomGraph(rng, 3, 3)
		for _, induced := range []bool{false, true} {
			Enumerate(pattern, target, Options{MaxEmbeddings: 8, Induced: induced}, func(m []graph.NodeID) bool {
				verified++
				if !verifyMapping(pattern, target, m, induced) {
					t.Fatalf("trial %d induced=%v: Enumerate reported a non-embedding %v", trial, induced, m)
				}
				// Corrupt it: duplicate a target node (breaks injectivity).
				bad := append([]graph.NodeID(nil), m...)
				if len(bad) >= 2 {
					bad[0] = bad[1]
					if verifyMapping(pattern, target, bad, induced) {
						t.Fatalf("trial %d: verifyMapping accepted non-injective %v", trial, bad)
					}
				}
				return true
			})
		}
	}
	if verified == 0 {
		t.Fatal("no embeddings found across trials; generator too sparse")
	}
	// Induced semantics: a chord in the target must reject a path mapping.
	p := graph.New("p")
	p.AddNode("C")
	p.AddNode("C")
	p.AddNode("C")
	p.AddEdge(0, 1, "s")
	p.AddEdge(1, 2, "s")
	tg := graph.New("t")
	tg.AddNode("C")
	tg.AddNode("C")
	tg.AddNode("C")
	tg.AddEdge(0, 1, "s")
	tg.AddEdge(1, 2, "s")
	tg.AddEdge(0, 2, "s")
	m := []graph.NodeID{0, 1, 2}
	if !verifyMapping(p, tg, m, false) {
		t.Fatal("monomorphism mapping rejected")
	}
	if verifyMapping(p, tg, m, true) {
		t.Fatal("induced mapping with a chord accepted")
	}
	if Count(p, tg, Options{Induced: true}).Embeddings != 0 {
		t.Fatal("Enumerate found an induced path in a triangle")
	}
}

// randomGraph builds a small random labeled graph (connected not
// required).
func randomGraph(rng *rand.Rand, nodes, edges int) *graph.Graph {
	labels := []string{"C", "N", "O"}
	g := graph.New("r")
	for i := 0; i < nodes; i++ {
		g.AddNode(labels[rng.Intn(len(labels))])
	}
	for i := 0; i < edges; i++ {
		u, v := rng.Intn(nodes), rng.Intn(nodes)
		if u != v {
			g.AddEdge(u, v, []string{"s", "d"}[rng.Intn(2)]) //nolint:errcheck
		}
	}
	return g
}
