package plan

// Rarest-edge-first matching order. VF2's wall time is dominated by the
// branching near the root of the search tree, so the order seeds the
// search at the edge satisfied by the fewest corpus graphs and always
// extends across the rarest edge leaving the matched frontier. Corpus-
// level document frequencies (Stats) stand in for per-graph frequencies —
// one order is compiled per query and reused across every candidate
// graph, instead of re-ranking labels per target the way the uncompiled
// matcher does.
//
// Determinism contract: every comparison that can tie on rarity is broken
// by interned label ids and then node indexes, so the compiled order —
// and everything downstream keyed on it — is byte-stable across runs and
// independent of map iteration or drawing order.

// edgeRarity returns how many corpus graphs can possibly satisfy edge e:
// the tightest available document frequency given which of its three
// labels are wildcards. Wildcards contribute no constraint.
func edgeRarity(a *AST, st Stats, e ASTEdge) int {
	la, le, lb := a.Nodes[e.U].Label, e.Label, a.Nodes[e.V].Label
	r := st.Graphs()
	min := func(v int) {
		if v < r {
			r = v
		}
	}
	if !wildcard(la) {
		min(st.NodeLabelGraphs(la))
	}
	if !wildcard(lb) {
		min(st.NodeLabelGraphs(lb))
	}
	if !wildcard(le) {
		min(st.EdgeLabelGraphs(le))
	}
	if !wildcard(la) && !wildcard(le) && !wildcard(lb) {
		x, y := la, lb
		if x > y {
			x, y = y, x
		}
		min(st.TripleGraphs(x, le, y))
	}
	return r
}

// nodeRarity returns how many corpus graphs contain node v's label.
func nodeRarity(a *AST, st Stats, v int) int {
	if wildcard(a.Nodes[v].Label) {
		return st.Graphs()
	}
	return st.NodeLabelGraphs(a.Nodes[v].Label)
}

// edgeKey is the comparison key for edge selection: lexicographic
// ascending on (rarity, edge label id, endpoint label ids, endpoint
// indexes). Two distinct edges never compare equal — the final component
// is the unique (min,max) endpoint pair plus the edge's slot.
type edgeKey struct {
	rarity  int
	labelID int
	loLabel int
	hiLabel int
	loNode  int
	hiNode  int
	index   int
}

func (a *AST) keyOf(st Stats, ei int) edgeKey {
	e := a.Edges[ei]
	lu, lv := a.Nodes[e.U].LabelID, a.Nodes[e.V].LabelID
	nu, nv := e.U, e.V
	if lu > lv || (lu == lv && nu > nv) {
		lu, lv, nu, nv = lv, lu, nv, nu
	}
	return edgeKey{
		rarity:  edgeRarity(a, st, e),
		labelID: e.LabelID,
		loLabel: lu,
		hiLabel: lv,
		loNode:  nu,
		hiNode:  nv,
		index:   ei,
	}
}

func (k edgeKey) less(o edgeKey) bool {
	switch {
	case k.rarity != o.rarity:
		return k.rarity < o.rarity
	case k.labelID != o.labelID:
		return k.labelID < o.labelID
	case k.loLabel != o.loLabel:
		return k.loLabel < o.loLabel
	case k.hiLabel != o.hiLabel:
		return k.hiLabel < o.hiLabel
	case k.loNode != o.loNode:
		return k.loNode < o.loNode
	case k.hiNode != o.hiNode:
		return k.hiNode < o.hiNode
	}
	return k.index < o.index
}

// RarestFirstOrder compiles the matching order: a permutation of the
// pattern's nodes that starts at the rarest edge (rarer endpoint first)
// and then repeatedly extends to the frontier node with the most edges
// back into the already-ordered core, rarest edge first among those.
// Back-degree outranks rarity during extension because each back-edge is
// a constraint VF2 checks the moment the node is assigned — on label-
// uniform patterns (where every edge ties on rarity) it is the only
// pruning signal there is. Disconnected patterns restart at the rarest
// remaining edge; isolated nodes come last, rarest label first. The
// result is valid for isomorph.Options.Order under any Stats (including
// a nil-like empty one): ordering affects only search speed, never the
// embedding set.
func (a *AST) RarestFirstOrder(st Stats) []int {
	n := len(a.Nodes)
	order := make([]int, 0, n)
	in := make([]bool, n)
	add := func(v int) {
		order = append(order, v)
		in[v] = true
	}
	// backDeg counts edges from v into the ordered core — deterministic,
	// derived only from the AST and the partial order built so far.
	backDeg := func(v int) int {
		d := 0
		for _, e := range a.Edges {
			if (e.U == v && in[e.V]) || (e.V == v && in[e.U]) {
				d++
			}
		}
		return d
	}
	// addEndpoints appends both endpoints of a component-starting edge,
	// most constrained endpoint first.
	addEndpoints := func(e ASTEdge) {
		u, v := e.U, e.V
		ru, rv := nodeRarity(a, st, u), nodeRarity(a, st, v)
		lu, lv := a.Nodes[u].LabelID, a.Nodes[v].LabelID
		if ru > rv || (ru == rv && (lu > lv || (lu == lv && u > v))) {
			u, v = v, u
		}
		add(u)
		add(v)
	}
	for len(order) < n {
		// Pick the best edge with at least one un-ordered endpoint,
		// preferring edges that touch the frontier; among frontier edges,
		// the one whose new endpoint has the most back-edges wins.
		bestEdge, bestFrontier, bestBack := -1, false, -1
		var bestKey edgeKey
		for ei := range a.Edges {
			e := a.Edges[ei]
			if in[e.U] && in[e.V] {
				continue
			}
			frontier := in[e.U] || in[e.V]
			if bestEdge >= 0 && frontier != bestFrontier {
				if bestFrontier {
					continue
				}
				bestEdge = -1 // frontier edge beats any non-frontier best
			}
			back := 0
			if frontier {
				w := e.U
				if in[e.U] {
					w = e.V
				}
				back = backDeg(w)
			}
			k := a.keyOf(st, ei)
			if bestEdge < 0 || back > bestBack || (back == bestBack && k.less(bestKey)) {
				bestEdge, bestFrontier, bestBack, bestKey = ei, frontier, back, k
			}
		}
		if bestEdge < 0 {
			// Only isolated nodes remain: rarest label first.
			best := -1
			for v := 0; v < n; v++ {
				if in[v] {
					continue
				}
				if best < 0 {
					best = v
					continue
				}
				rv, rb := nodeRarity(a, st, v), nodeRarity(a, st, best)
				lv, lb := a.Nodes[v].LabelID, a.Nodes[best].LabelID
				if rv < rb || (rv == rb && (lv < lb || (lv == lb && v < best))) {
					best = v
				}
			}
			add(best)
			continue
		}
		e := a.Edges[bestEdge]
		switch {
		case in[e.U]:
			add(e.V)
		case in[e.V]:
			add(e.U)
		default:
			addEndpoints(e)
		}
	}
	return order
}
