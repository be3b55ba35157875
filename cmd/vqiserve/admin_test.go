package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/catapult"
	"repro/internal/datagen"
	"repro/internal/gindex"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/vqi"
)

// adminServer builds a ready corpus-mode server with k index shards and
// both caches enabled.
func adminServer(t *testing.T, k, cacheSize int) *server {
	t.Helper()
	corpus := datagen.ChemicalCorpus(2, 24, datagen.ChemicalOptions{MinNodes: 8, MaxNodes: 14})
	spec, _, err := vqi.BuildFromCorpus(corpus, catapult.Config{
		Budget: pattern.Budget{Count: 3, MinSize: 4, MaxSize: 7}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(spec, corpus, serverConfig{shards: k, cacheSize: cacheSize})
	s.buildIndex()
	return s
}

func post(t *testing.T, h http.Handler, path, body string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
	return rec, rec.Body.Bytes()
}

const ccQuery = `{"nodes":["C","C"],"edges":[{"u":0,"v":1,"label":"s"}]}`

func queryMatched(t *testing.T, h http.Handler) []string {
	t.Helper()
	rec, body := post(t, h, "/api/query", ccQuery)
	if rec.Code != 200 {
		t.Fatalf("query status = %d (body %s)", rec.Code, body)
	}
	var resp queryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Matched
}

// TestAdminUpdateRoundTrip adds a graph through /admin/update, sees it
// matched by the very next query, removes it, and sees it gone — all
// without any index rebuild beyond the touched shards.
func TestAdminUpdateRoundTrip(t *testing.T) {
	const k = 4
	s := adminServer(t, k, 64)
	h := s.routes()

	before := queryMatched(t, h)
	if slices.Contains(before, "adm-added") {
		t.Fatal("fixture already contains the graph to add")
	}

	add := `{"add":[{"name":"adm-added","nodes":["C","C","O"],"edges":[{"u":0,"v":1,"label":"s"},{"u":1,"v":2,"label":"s"}]}]}`
	rec, body := post(t, h, "/admin/update", add)
	if rec.Code != 200 {
		t.Fatalf("update status = %d (body %s)", rec.Code, body)
	}
	var rep updateResponse
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Added != 1 || rep.Removed != 0 || rep.Shards != k {
		t.Fatalf("report %+v", rep)
	}
	if len(rep.Rebuilt) != 1 {
		t.Fatalf("one added graph must rebuild exactly one shard, got %v", rep.Rebuilt)
	}
	if rep.Graphs != 25 {
		t.Fatalf("graphs = %d, want 24 fixtures + 1 added", rep.Graphs)
	}

	after := queryMatched(t, h)
	if !slices.Contains(after, "adm-added") {
		t.Fatalf("added graph not matched: %v", after)
	}
	// The added graph lands at the end of corpus order.
	if after[len(after)-1] != "adm-added" {
		t.Fatalf("added graph must sort last in corpus order: %v", after)
	}
	if !slices.Equal(after[:len(after)-1], before) {
		t.Fatalf("surviving matches changed order: %v vs %v", after, before)
	}

	rec, body = post(t, h, "/admin/update", `{"remove":["adm-added"]}`)
	if rec.Code != 200 {
		t.Fatalf("remove status = %d (body %s)", rec.Code, body)
	}
	final := queryMatched(t, h)
	if !slices.Equal(final, before) {
		t.Fatalf("after remove: %v, want %v", final, before)
	}
}

// TestAdminUpdatePartialCacheInvalidation is the point of per-shard epoch
// keys: after a batch that rebuilds R of K shards, re-running a cached
// query recomputes exactly R shard partials and reuses the other K-R from
// the cache.
func TestAdminUpdatePartialCacheInvalidation(t *testing.T) {
	const k = 4
	s := adminServer(t, k, 64)
	h := s.routes()

	queryMatched(t, h)
	hits0, miss0, _ := s.shardQC.Stats()
	if miss0 != k || hits0 != 0 {
		t.Fatalf("first query: %d hits, %d misses, want 0/%d", hits0, miss0, k)
	}
	// An identical query hits the full-response cache and never reaches the
	// shard cache.
	queryMatched(t, h)
	if hits1, miss1, _ := s.shardQC.Stats(); hits1 != hits0 || miss1 != miss0 {
		t.Fatalf("repeat query touched the shard cache: %d/%d", hits1, miss1)
	}

	add := `{"add":[{"name":"adm-cache","nodes":["C","C"],"edges":[{"u":0,"v":1,"label":"s"}]}]}`
	rec, body := post(t, h, "/admin/update", add)
	if rec.Code != 200 {
		t.Fatalf("update status = %d (body %s)", rec.Code, body)
	}
	var rep updateResponse
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}

	// The epoch vector changed, so the full-response cache misses and the
	// shard fan-out reruns — but only the rebuilt shards' partials miss.
	queryMatched(t, h)
	hits2, miss2, _ := s.shardQC.Stats()
	if got, want := miss2-miss0, uint64(len(rep.Rebuilt)); got != want {
		t.Fatalf("shard-cache misses after update = %d, want %d (rebuilt %v)", got, want, rep.Rebuilt)
	}
	if got, want := hits2-hits0, uint64(k-len(rep.Rebuilt)); got != want {
		t.Fatalf("shard-cache hits after update = %d, want %d", got, want)
	}

	// A removal renumbers the global positions of every later graph, in
	// untouched shards too. Their partials still hit, and the merged
	// answer is still the corpus-order answer of a fresh build.
	rec, body = post(t, h, "/admin/update", `{"remove":["mol1"]}`)
	if rec.Code != 200 {
		t.Fatalf("removal status = %d (body %s)", rec.Code, body)
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	got := queryMatched(t, h)
	hits3, miss3, _ := s.shardQC.Stats()
	if d := miss3 - miss2; d != uint64(len(rep.Rebuilt)) {
		t.Fatalf("shard-cache misses after removal = %d, want %d (rebuilt %v)", d, len(rep.Rebuilt), rep.Rebuilt)
	}
	if d := hits3 - hits2; d != uint64(k-len(rep.Rebuilt)) {
		t.Fatalf("shard-cache hits after removal = %d, want %d", d, k-len(rep.Rebuilt))
	}
	corpus, _ := s.snapshot()
	q := decodeTestQuery(t, ccQuery)
	if want := gindex.BuildSharded(corpus, k, 1).Search(q, pattern.MatchOptions()).Matches; !reflect.DeepEqual(got, want) {
		t.Fatalf("answer after removal:\n got %v\nwant %v", got, want)
	}
}

// decodeTestQuery builds the query graph an /api/query body describes.
func decodeTestQuery(t *testing.T, body string) *graph.Graph {
	t.Helper()
	var req queryRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	q := graph.New("query")
	for _, l := range req.Nodes {
		q.AddNode(l)
	}
	for _, e := range req.Edges {
		q.MustAddEdge(e.U, e.V, e.Label)
	}
	return q
}

// updateBodyFor renders a batch as an /admin/update body.
func updateBodyFor(t *testing.T, add []*graph.Graph, remove []string) string {
	t.Helper()
	type edge struct {
		U     int    `json:"u"`
		V     int    `json:"v"`
		Label string `json:"label"`
	}
	type addGraph struct {
		Name  string   `json:"name"`
		Nodes []string `json:"nodes"`
		Edges []edge   `json:"edges"`
	}
	req := struct {
		Add    []addGraph `json:"add,omitempty"`
		Remove []string   `json:"remove,omitempty"`
	}{Remove: remove}
	for _, g := range add {
		ag := addGraph{Name: g.Name(), Nodes: []string{}, Edges: []edge{}}
		for v := 0; v < g.NumNodes(); v++ {
			ag.Nodes = append(ag.Nodes, g.NodeLabel(v))
		}
		for _, e := range g.Edges() {
			ag.Edges = append(ag.Edges, edge{int(e.U), int(e.V), e.Label})
		}
		req.Add = append(req.Add, ag)
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestAdminUpdateRandomBatchesMatchFreshBuild drives random add/remove
// batch sequences through a server with the response and shard-partial
// caches on, and checks every answer against a fresh BuildSharded over the
// same corpus. Cached partials of untouched shards outlive removals that
// renumber their graphs' global positions; the merged answers must not
// notice.
func TestAdminUpdateRandomBatchesMatchFreshBuild(t *testing.T) {
	const k = 4
	for _, maxResults := range []int{0, 3} {
		for _, planOn := range []bool{false, true} {
			corpus := datagen.ChemicalCorpus(2, 24, datagen.ChemicalOptions{MinNodes: 8, MaxNodes: 14})
			spec, _, err := vqi.BuildFromCorpus(corpus, catapult.Config{
				Budget: pattern.Budget{Count: 3, MinSize: 4, MaxSize: 7}, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			s := newServer(spec, corpus, serverConfig{shards: k, cacheSize: 256, maxResults: maxResults, planEnabled: planOn})
			s.buildIndex()
			h := s.routes()
			rng := rand.New(rand.NewSource(int64(17 + maxResults)))
			bodies := []string{ccQuery}
			for len(bodies) < 6 {
				if q := datagen.RandomConnectedSubgraph(rng, corpus.Graph(rng.Intn(corpus.Len())), 2+rng.Intn(3)); q != nil {
					bodies = append(bodies, queryBodyFor(q))
				}
			}
			extra := datagen.ChemicalCorpus(9, 40, datagen.ChemicalOptions{MinNodes: 8, MaxNodes: 14})
			added := 0
			for step := 0; step < 12; step++ {
				if step > 0 {
					cur, _ := s.snapshot()
					var remove []string
					for i, n := 0, 1+rng.Intn(2); i < n; i++ {
						name := cur.Graph(rng.Intn(cur.Len())).Name()
						if !slices.Contains(remove, name) {
							remove = append(remove, name)
						}
					}
					var add []*graph.Graph
					for i, n := 0, rng.Intn(3); i < n; i++ {
						g := extra.Graph(added % extra.Len()).Clone()
						g.SetName(fmt.Sprintf("batch-%d", added))
						add = append(add, g)
						added++
					}
					if rec, body := post(t, h, "/admin/update", updateBodyFor(t, add, remove)); rec.Code != 200 {
						t.Fatalf("step %d: update status = %d (body %s)", step, rec.Code, body)
					}
				}
				cur, _ := s.snapshot()
				fresh := gindex.BuildSharded(cur, k, 1)
				opts := pattern.MatchOptions()
				opts.MaxResults = maxResults
				for qi, body := range bodies {
					rec, out := post(t, h, "/api/query", body)
					if rec.Code != 200 {
						t.Fatalf("step %d q%d: status = %d (body %s)", step, qi, rec.Code, out)
					}
					var resp queryResponse
					if err := json.Unmarshal(out, &resp); err != nil {
						t.Fatal(err)
					}
					want := fresh.Search(decodeTestQuery(t, body), opts).Matches
					if !reflect.DeepEqual(resp.Matched, want) {
						t.Fatalf("max=%d plan=%v step %d q%d:\n got %v\nwant %v", maxResults, planOn, step, qi, resp.Matched, want)
					}
				}
			}
		}
	}
}

func TestAdminUpdateErrors(t *testing.T) {
	s := adminServer(t, 2, 8)
	h := s.routes()
	for name, tc := range map[string]struct {
		body   string
		status int
		code   string
	}{
		"bad-json":        {`{`, 400, "bad_json"},
		"empty-batch":     {`{}`, 400, "empty_batch"},
		"missing-name":    {`{"add":[{"nodes":["C"]}]}`, 400, "bad_batch"},
		"bad-edge":        {`{"add":[{"name":"x","nodes":["C"],"edges":[{"u":0,"v":9,"label":"s"}]}]}`, 400, "bad_batch"},
		"unknown-removal": {`{"remove":["no-such-graph"]}`, 400, "bad_batch"},
		"duplicate-add":   {`{"add":[{"name":"mol0","nodes":["C"]}]}`, 400, "bad_batch"},
	} {
		rec, body := post(t, h, "/admin/update", tc.body)
		if rec.Code != tc.status {
			t.Fatalf("%s: status = %d, want %d (body %s)", name, rec.Code, tc.status, body)
		}
		if e := decodeErr(t, body); e.Code != tc.code {
			t.Fatalf("%s: code = %q, want %q", name, e.Code, tc.code)
		}
	}

	// Before the index is built the endpoint refuses rather than racing the
	// background build.
	cold := testServer(t)
	rec, body := post(t, cold.routes(), "/admin/update", `{"remove":["mol0"]}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("cold server: status = %d (body %s)", rec.Code, body)
	}

	// Network mode has no corpus to batch-update.
	net := networkServer(t, serverConfig{})
	net.phase.Store(phaseReady)
	rec, body = post(t, net.routes(), "/admin/update", `{"remove":["g"]}`)
	if rec.Code != http.StatusConflict {
		t.Fatalf("network server: status = %d (body %s)", rec.Code, body)
	}
	if e := decodeErr(t, body); e.Code != "network_mode" {
		t.Fatalf("network server: code = %q", e.Code)
	}
}

// TestAdminUpdateConcurrentWithQueries races batch updates against a
// stream of queries (run under -race by scripts/verify.sh): every query
// must see a consistent snapshot and return cleanly.
func TestAdminUpdateConcurrentWithQueries(t *testing.T) {
	s := adminServer(t, 4, 64)
	h := s.routes()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("conc-%d", i)
			add := fmt.Sprintf(`{"add":[{"name":%q,"nodes":["C","C"],"edges":[{"u":0,"v":1,"label":"s"}]}]}`, name)
			if rec, body := post(t, h, "/admin/update", add); rec.Code != 200 {
				t.Errorf("add %s: %d (%s)", name, rec.Code, body)
				return
			}
			if rec, body := post(t, h, "/admin/update", fmt.Sprintf(`{"remove":[%q]}`, name)); rec.Code != 200 {
				t.Errorf("remove %s: %d (%s)", name, rec.Code, body)
				return
			}
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
			if rec, body := post(t, h, "/api/query", ccQuery); rec.Code != 200 {
				t.Fatalf("query during updates: %d (%s)", rec.Code, body)
			}
		}
	}
}
