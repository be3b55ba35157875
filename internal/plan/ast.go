package plan

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/isomorph"
)

// AST is the parsed form of a visual query: nodes and edges annotated with
// interned label ids. The intern table is the sorted list of distinct
// labels appearing anywhere in the pattern (node and edge labels share
// one table), so label ids depend only on the label set — never on the
// order the user drew the pattern in. That is what makes every id-based
// tie-break below byte-stable across runs.
type AST struct {
	Nodes []ASTNode
	Edges []ASTEdge
	// Labels is the intern table: sorted distinct labels.
	Labels []string
}

// ASTNode is one pattern node.
type ASTNode struct {
	Label   string
	LabelID int
}

// ASTEdge is one pattern edge.
type ASTEdge struct {
	U, V    int
	Label   string
	LabelID int
}

// Parse lifts a query graph into an AST.
func Parse(q *graph.Graph) *AST {
	n := q.NumNodes()
	a := &AST{
		Nodes: make([]ASTNode, n),
		Edges: make([]ASTEdge, 0, q.NumEdges()),
	}
	seen := make(map[string]bool)
	for v := 0; v < n; v++ {
		l := q.NodeLabel(v)
		a.Nodes[v] = ASTNode{Label: l}
		if !seen[l] {
			seen[l] = true
			a.Labels = append(a.Labels, l)
		}
	}
	for _, e := range q.Edges() {
		a.Edges = append(a.Edges, ASTEdge{U: int(e.U), V: int(e.V), Label: e.Label})
		if !seen[e.Label] {
			seen[e.Label] = true
			a.Labels = append(a.Labels, e.Label)
		}
	}
	sort.Strings(a.Labels)
	id := make(map[string]int, len(a.Labels))
	for i, l := range a.Labels {
		id[l] = i
	}
	for v := range a.Nodes {
		a.Nodes[v].LabelID = id[a.Nodes[v].Label]
	}
	for ei := range a.Edges {
		a.Edges[ei].LabelID = id[a.Edges[ei].Label]
	}
	return a
}

// LabelID returns the interned id of l, or -1 if l does not occur in the
// pattern.
func (a *AST) LabelID(l string) int {
	i := sort.SearchStrings(a.Labels, l)
	if i < len(a.Labels) && a.Labels[i] == l {
		return i
	}
	return -1
}

// wildcard reports whether l is the match-anything label.
func wildcard(l string) bool { return l == isomorph.Wildcard }
