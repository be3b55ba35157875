package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/canon"
	"repro/internal/gindex"
	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/pattern"
	"repro/internal/vqi"
)

// oracle answers every checked request independently of the serving code
// paths: containment is plain isomorph.Exists with the serving match
// options over every graph of a corpus version, suggestions come from an
// in-process vqi.SuggestForSpec, and similarity answers are scored against
// the exact top-k of an in-process index with the server's configuration.
type oracle struct {
	spec   *vqi.Spec
	canned []*graph.Graph
	opts   isomorph.Options

	// graphs holds every graph that was ever part of the corpus, by name;
	// versions[v] is the corpus order after v batches.
	graphs   map[string]*graph.Graph
	versions [][]string

	exact *gindex.Sharded // ANN-enabled replica for exact top-k; nil without similar checks

	mu       sync.Mutex
	contains map[string]map[string]bool // canon(q) -> graph name -> q ⊆ g
	facetsOf map[string][]bool          // graph name -> canned pattern containment
	counts   map[string]labelCounts     // graph name -> label multiset
}

// labelCounts is a graph's multiset of node labels and of labelled edge
// triples (endpoint labels in sorted order plus the edge label). A
// monomorphism maps pattern nodes and edges injectively onto equally
// labelled target nodes and edges, so a target with fewer of some concrete
// label or triple cannot contain the pattern; the oracle skips VF2 there,
// nothing else. Wildcard ("") labels are not counted.
type labelCounts map[string]int

func countLabels(g *graph.Graph) labelCounts {
	c := labelCounts{}
	for i := 0; i < g.NumNodes(); i++ {
		if l := g.NodeLabel(i); l != "" {
			c["n\x00"+l]++
		}
	}
	for _, e := range g.Edges() {
		a, b := g.NodeLabel(e.U), g.NodeLabel(e.V)
		if a == "" || b == "" || e.Label == "" {
			continue
		}
		if b < a {
			a, b = b, a
		}
		c["e\x00"+a+"\x00"+e.Label+"\x00"+b]++
	}
	return c
}

// covers reports whether c has at least as many of every key as q.
func (c labelCounts) covers(q labelCounts) bool {
	for k, n := range q {
		if c[k] < n {
			return false
		}
	}
	return true
}

func (o *oracle) countsOf(name string) labelCounts {
	o.mu.Lock()
	defer o.mu.Unlock()
	c, ok := o.counts[name]
	if !ok {
		c = countLabels(o.graphs[name])
		o.counts[name] = c
	}
	return c
}

func newOracle(spec *vqi.Spec, canned []*graph.Graph, initial *graph.Corpus) *oracle {
	o := &oracle{
		spec:     spec,
		canned:   canned,
		opts:     pattern.MatchOptions(),
		graphs:   map[string]*graph.Graph{},
		contains: map[string]map[string]bool{},
		facetsOf: map[string][]bool{},
		counts:   map[string]labelCounts{},
	}
	v0 := make([]string, initial.Len())
	for i := range v0 {
		g := initial.Graph(i)
		o.graphs[g.Name()] = g
		v0[i] = g.Name()
	}
	o.versions = [][]string{v0}
	return o
}

// addVersion records the corpus after applying b to the newest version.
func (o *oracle) addVersion(b *batch) {
	for _, g := range b.Added {
		o.graphs[g.Name()] = g
	}
	o.versions = append(o.versions, applyBatch(o.versions[len(o.versions)-1], b))
}

// matches is the oracle answer for q on corpus version v, in corpus order.
// Containment is memoised per canonical query and graph name, so repeated
// and isomorphic queries, and versions sharing most graphs, cost one pass.
func (o *oracle) matches(q *graph.Graph, v int) []string {
	names := o.versions[v]
	key := canon.String(q)
	o.mu.Lock()
	memo := o.contains[key]
	if memo == nil {
		memo = map[string]bool{}
		o.contains[key] = memo
	}
	var todo []string
	for _, n := range names {
		if _, ok := memo[n]; !ok {
			todo = append(todo, n)
		}
	}
	o.mu.Unlock()
	res := make([]bool, len(todo))
	qc := countLabels(q)
	for i, n := range todo {
		res[i] = o.countsOf(n).covers(qc) && isomorph.Exists(q, o.graphs[n], o.opts)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for i, n := range todo {
		memo[n] = res[i]
	}
	var out []string
	for _, n := range names {
		if memo[n] {
			out = append(out, n)
		}
	}
	return out
}

// cannedIn returns which canned patterns graph name contains.
func (o *oracle) cannedIn(name string) []bool {
	o.mu.Lock()
	got, ok := o.facetsOf[name]
	o.mu.Unlock()
	if ok {
		return got
	}
	g := o.graphs[name]
	got = make([]bool, len(o.canned))
	for i, p := range o.canned {
		got[i] = isomorph.Exists(p, g, o.opts)
	}
	o.mu.Lock()
	o.facetsOf[name] = got
	o.mu.Unlock()
	return got
}

type facetWire struct {
	Pattern string   `json:"pattern"`
	Graphs  []string `json:"graphs"`
}

type queryWire struct {
	Matched   []string    `json:"matched"`
	Facets    []facetWire `json:"facets"`
	Truncated bool        `json:"truncated"`
}

// expectedFacets rebuilds the facet panel for a match list: graphs grouped
// by the canned patterns they contain, largest group first.
func (o *oracle) expectedFacets(matched []string) []facetWire {
	var out []facetWire
	for pi := range o.canned {
		var members []string
		for _, n := range matched {
			if o.cannedIn(n)[pi] {
				members = append(members, n)
			}
		}
		if len(members) > 0 {
			sort.Strings(members)
			out = append(out, facetWire{Pattern: o.spec.Patterns.Canned[pi].Name, Graphs: members})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return len(out[i].Graphs) > len(out[j].Graphs) })
	return out
}

// verdict classes of one checked response.
type verdict int

const (
	verdictOK verdict = iota
	verdictWrong
	verdictTruncated
	verdictUnparsable
)

// checkQuery compares one /api/query body with the oracle answer on every
// version in [lo, hi]; it passes if any of them agrees.
func (o *oracle) checkQuery(q *graph.Graph, body []byte, lo, hi int) (verdict, string) {
	var got queryWire
	if err := json.Unmarshal(body, &got); err != nil {
		return verdictUnparsable, err.Error()
	}
	if got.Truncated {
		return verdictTruncated, "truncated answer"
	}
	var diff string
	for v := lo; v <= hi; v++ {
		want := o.matches(q, v)
		if !equalStrings(got.Matched, want) {
			diff = fmt.Sprintf("version %d: got %d matches, want %d (%s)", v, len(got.Matched), len(want), firstDiff(got.Matched, want))
			continue
		}
		if wf := o.expectedFacets(want); !equalFacets(got.Facets, wf) {
			diff = fmt.Sprintf("version %d: facets differ", v)
			continue
		}
		return verdictOK, ""
	}
	return verdictWrong, diff
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func firstDiff(got, want []string) string {
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			return fmt.Sprintf("first difference at %d: got %q want %q", i, g, w)
		}
	}
	return "same"
}

func equalFacets(a, b []facetWire) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Pattern != b[i].Pattern || !equalStrings(a[i].Graphs, b[i].Graphs) {
			return false
		}
	}
	return true
}

type suggestWire struct {
	Suggestions []struct {
		PatternIndex int    `json:"pattern_index"`
		Name         string `json:"name"`
		NewEdges     int    `json:"new_edges"`
	} `json:"suggestions"`
}

// checkSuggest compares one /api/suggest body with vqi.SuggestForSpec.
func (o *oracle) checkSuggest(q *graph.Graph, body []byte) (verdict, string) {
	var got suggestWire
	if err := json.Unmarshal(body, &got); err != nil {
		return verdictUnparsable, err.Error()
	}
	want, err := vqi.SuggestForSpec(o.spec, q, 8)
	if err != nil {
		return verdictWrong, err.Error()
	}
	if len(got.Suggestions) != len(want) {
		return verdictWrong, fmt.Sprintf("got %d suggestions, want %d", len(got.Suggestions), len(want))
	}
	for i, w := range want {
		g := got.Suggestions[i]
		if g.PatternIndex != w.PatternIndex || g.Name != w.Pattern.Name || g.NewEdges != w.NewEdges {
			return verdictWrong, fmt.Sprintf("suggestion %d: got %+v want index %d %q +%d", i, g, w.PatternIndex, w.Pattern.Name, w.NewEdges)
		}
	}
	return verdictOK, ""
}

type similarWire struct {
	Matches []struct {
		Name     string  `json:"name"`
		Score    float64 `json:"score"`
		Contains bool    `json:"contains"`
	} `json:"matches"`
	Truncated bool `json:"truncated"`
}

// checkSimilar scores one /api/similar body against the exact top-k and
// returns its recall@k. The answer must have k entries, every returned
// score must equal the exact cosine where the exact top-k also holds that
// graph, and with verify every containment flag must equal the oracle's.
func (o *oracle) checkSimilar(s simSpec, body []byte) (verdict, string, float64) {
	var got similarWire
	if err := json.Unmarshal(body, &got); err != nil {
		return verdictUnparsable, err.Error(), 0
	}
	if got.Truncated {
		return verdictTruncated, "truncated answer", 0
	}
	q := o.graphs[s.Graph]
	exact, err := o.exact.Similar(q, gindex.SimilarOptions{K: s.K, Exact: true})
	if err != nil {
		return verdictWrong, err.Error(), 0
	}
	score := map[string]float64{}
	for _, m := range exact.Matches {
		score[m.Name] = m.Score
	}
	if len(got.Matches) != len(exact.Matches) {
		return verdictWrong, fmt.Sprintf("got %d matches, want %d", len(got.Matches), len(exact.Matches)), 0
	}
	hit := 0
	for _, m := range got.Matches {
		if es, ok := score[m.Name]; ok {
			hit++
			if math.Abs(es-m.Score) > 1e-9 {
				return verdictWrong, fmt.Sprintf("%s: score %v, exact %v", m.Name, m.Score, es), 0
			}
		}
		if s.Verify {
			g, ok := o.graphs[m.Name]
			if !ok {
				return verdictWrong, fmt.Sprintf("unknown graph %q", m.Name), 0
			}
			if want := isomorph.Exists(q, g, o.opts); want != m.Contains {
				return verdictWrong, fmt.Sprintf("%s: contains=%v, oracle %v", m.Name, m.Contains, want), 0
			}
		}
	}
	return verdictOK, "", float64(hit) / float64(len(exact.Matches))
}

type updateWire struct {
	Added   int   `json:"added"`
	Removed int   `json:"removed"`
	Graphs  int   `json:"graphs"`
	Shards  int   `json:"shards"`
	Rebuilt []int `json:"rebuilt"`
}

// checkUpdate checks an /admin/update acknowledgement against the batch:
// counts, the corpus size after version v, and that exactly the shards
// owning a touched graph were rebuilt.
func (o *oracle) checkUpdate(b *batch, body []byte, v int) (verdict, string) {
	var got updateWire
	if err := json.Unmarshal(body, &got); err != nil {
		return verdictUnparsable, err.Error()
	}
	if got.Added != len(b.Added) || got.Removed != len(b.Removed) {
		return verdictWrong, fmt.Sprintf("added/removed %d/%d, want %d/%d", got.Added, got.Removed, len(b.Added), len(b.Removed))
	}
	if want := len(o.versions[v]); got.Graphs != want {
		return verdictWrong, fmt.Sprintf("corpus size %d, want %d", got.Graphs, want)
	}
	touched := map[int]bool{}
	for _, g := range b.Added {
		touched[gindex.ShardOf(g.Name(), got.Shards)] = true
	}
	for _, n := range b.Removed {
		touched[gindex.ShardOf(n, got.Shards)] = true
	}
	if len(got.Rebuilt) != len(touched) {
		return verdictWrong, fmt.Sprintf("rebuilt %v, touched %d shards", got.Rebuilt, len(touched))
	}
	for _, s := range got.Rebuilt {
		if !touched[s] {
			return verdictWrong, fmt.Sprintf("rebuilt untouched shard %d", s)
		}
	}
	return verdictOK, ""
}
