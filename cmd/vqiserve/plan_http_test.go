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
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/vqi"
)

// planTestServer builds a planner-enabled server over a corpus large
// enough that double-digit-edge queries still match.
func planTestServer(t *testing.T) *server {
	t.Helper()
	corpus := datagen.ChemicalCorpus(5, 40, datagen.ChemicalOptions{MinNodes: 12, MaxNodes: 24})
	spec, _, err := vqi.BuildFromCorpus(corpus, catapult.Config{
		Budget: pattern.Budget{Count: 3, MinSize: 4, MaxSize: 7}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(spec, corpus, serverConfig{cacheSize: 64, planEnabled: true, annEnabled: true})
	s.buildIndex()
	return s
}

// bigQueryBody draws a connected subgraph of the corpus with at least
// minEdges edges and renders it as an /api/query body — guaranteed to
// match at least its source graph.
func bigQueryBody(t *testing.T, s *server, minEdges int) string {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	corpus, _ := s.snapshot()
	for tries := 0; tries < 200; tries++ {
		g := corpus.Graph(rng.Intn(corpus.Len()))
		q := datagen.RandomConnectedSubgraph(rng, g, 8+rng.Intn(6))
		if q == nil || q.NumEdges() < minEdges {
			continue
		}
		return queryBodyFor(q)
	}
	t.Fatal("no large subgraph query found")
	return ""
}

func queryBodyFor(q *graph.Graph) string {
	var b strings.Builder
	b.WriteString(`{"nodes":[`)
	for i := 0; i < q.NumNodes(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q", q.NodeLabel(i))
	}
	b.WriteString(`],"edges":[`)
	for i, e := range q.Edges() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"u":%d,"v":%d,"label":%q}`, e.U, e.V, e.Label)
	}
	b.WriteString(`]}`)
	return b.String()
}

// postPlanQuery sends body through the full handler chain (so the request
// carries a trace and stage spans attach to it).
func postPlanQuery(t *testing.T, h http.Handler, url, body string) (*httptest.ResponseRecorder, queryResponse) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", url, strings.NewReader(body)))
	var resp queryResponse
	if rec.Code == 200 {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
	}
	return rec, resp
}

// TestHandleQueryPlanParamValidation: unknown ?plan= values, including
// the removed forced strategies, are a 400 envelope; an empty value means
// auto.
func TestHandleQueryPlanParamValidation(t *testing.T) {
	s := planTestServer(t)
	h := s.routes()
	body := `{"nodes":["C","C"],"edges":[{"u":0,"v":1,"label":"s"}]}`
	for _, mode := range []string{"fastest", "monolithic", "decompose", "ann"} {
		rec, _ := postPlanQuery(t, h, "/api/query?plan="+mode, body)
		if rec.Code != 400 {
			t.Fatalf("%s: status = %d (body %s)", mode, rec.Code, rec.Body)
		}
		if e := decodeErr(t, rec.Body.Bytes()); e.Code != "bad_plan" {
			t.Fatalf("%s: code = %q", mode, e.Code)
		}
	}
	if rec, _ := postPlanQuery(t, h, "/api/query?plan=", body); rec.Code != 200 {
		t.Fatalf("empty plan value: status = %d (body %s)", rec.Code, rec.Body)
	}
}

// TestHandleQueryPlanModesAgree: every planning mode answers with the
// same match list as the planner-off baseline — the serving-layer view of
// the plan/oracle equivalence property.
func TestHandleQueryPlanModesAgree(t *testing.T) {
	s := planTestServer(t)
	h := s.routes()
	for _, body := range []string{
		`{"nodes":["C","C"],"edges":[{"u":0,"v":1,"label":"s"}]}`,
		bigQueryBody(t, s, 10),
	} {
		rec, base := postPlanQuery(t, h, "/api/query?plan=off", body)
		if rec.Code != 200 {
			t.Fatalf("baseline status = %d (body %s)", rec.Code, rec.Body)
		}
		for _, mode := range []string{"auto", "off"} {
			rec, got := postPlanQuery(t, h, "/api/query?plan="+mode, body)
			if rec.Code != 200 {
				t.Fatalf("%s: status = %d (body %s)", mode, rec.Code, rec.Body)
			}
			if !reflect.DeepEqual(got.Matched, base.Matched) {
				t.Fatalf("%s: matched %v, baseline %v", mode, got.Matched, base.Matched)
			}
			if got.Plan == nil || got.Plan.Mode != mode {
				t.Fatalf("%s: plan info missing or wrong: %+v", mode, got.Plan)
			}
		}
	}
}

// TestHandleQueryPlanTrace: an explicit ?plan=auto request on a large
// query reports the monolithic strategy and the plan.compile stage span.
func TestHandleQueryPlanTrace(t *testing.T) {
	s := planTestServer(t)
	h := s.routes()
	body := bigQueryBody(t, s, 10)
	rec, resp := postPlanQuery(t, h, "/api/query?plan=auto", body)
	if rec.Code != 200 {
		t.Fatalf("status = %d (body %s)", rec.Code, rec.Body)
	}
	if resp.Plan == nil || resp.Plan.Strategy != "monolithic" {
		t.Fatalf("plan = %+v; want the monolithic strategy", resp.Plan)
	}
	if resp.Plan.Summary == "" {
		t.Fatal("plan summary empty")
	}
	if !slices.ContainsFunc(resp.Stages, func(st stageEntry) bool { return st.Name == "plan.compile" }) {
		t.Fatalf("stage plan.compile missing from %v", resp.Stages)
	}
	// No ?plan= parameter: the response stays free of plan/stage fields.
	rec2, resp2 := postPlanQuery(t, h, "/api/query", body)
	if rec2.Code != 200 {
		t.Fatalf("status = %d", rec2.Code)
	}
	if resp2.Plan != nil || resp2.Stages != nil {
		t.Fatal("plan detail attached without the ?plan= parameter")
	}
	if !reflect.DeepEqual(resp2.Matched, resp.Matched) {
		t.Fatal("default-mode answer diverged")
	}
}

// TestHandleQueryPlanCachedStillTraced: a response served from the query
// cache still carries the plan summary and this request's stages — the
// detail is attached after the cache, never stored in it.
func TestHandleQueryPlanCachedStillTraced(t *testing.T) {
	s := planTestServer(t)
	h := s.routes()
	body := bigQueryBody(t, s, 10)
	postPlanQuery(t, h, "/api/query?plan=auto", body)
	rec, resp := postPlanQuery(t, h, "/api/query?plan=auto", body)
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if hits, _, dedups := s.qc.Stats(); hits+dedups == 0 {
		t.Fatal("second identical query did not hit the response cache")
	}
	if resp.Plan == nil || resp.Plan.Summary == "" {
		t.Fatal("cached response lost the plan summary")
	}
	if len(resp.Stages) == 0 {
		t.Fatal("cached response lost the stage table")
	}
}

// TestPlanCacheMetricsExported: the plan cache gauges appear at the
// metrics boundary (sanitized like every other cache family), and the
// removed fragment-view cache exports nothing.
func TestPlanCacheMetricsExported(t *testing.T) {
	s := planTestServer(t)
	h := s.routes()
	postPlanQuery(t, h, "/api/query?plan=auto", bigQueryBody(t, s, 10))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"vqiserve_plancache_hits", "vqiserve_plancache_misses", "vqiserve_plancache_hit_ratio",
	} {
		if _, ok := vars[key]; !ok {
			t.Fatalf("gauge %q missing from /debug/vars", key)
		}
	}
	for key := range vars {
		if strings.HasPrefix(key, "vqiserve_viewcache") {
			t.Fatalf("removed view cache still exports %q", key)
		}
	}
	if misses := string(vars["vqiserve_plancache_misses"]); misses == "0" {
		t.Fatal("plan compile never reached the plan cache")
	}
}
