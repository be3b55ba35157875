package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/gindex"
	"repro/internal/graph"
	"repro/internal/vqi"
)

func testInputs(t *testing.T) *inputs {
	t.Helper()
	corpus := datagen.ChemicalCorpus(3, 60, datagen.ChemicalOptions{})
	spec := &vqi.Spec{Name: "test", Mode: vqi.DataDriven}
	spec.Attribute.NodeLabels = []string{"C", "O", "N"}
	spec.Attribute.EdgeLabels = []string{"s", "d"}
	spec.Patterns.Canned = []vqi.PatternSpec{
		{Name: "co", NodeLabels: []string{"C", "O"}, Edges: []vqi.EdgeSpec{{U: 0, V: 1, Label: "s"}}},
		{Name: "ccc", NodeLabels: []string{"C", "C", "C"}, Edges: []vqi.EdgeSpec{{U: 0, V: 1, Label: "s"}, {U: 1, V: 2, Label: "s"}}},
	}
	in, err := newInputs(corpus, spec)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// The workload seed alone determines the request trace, byte for byte.
func TestTraceDeterministic(t *testing.T) {
	in := testInputs(t)
	for _, w := range workloadNames {
		a, err := in.generate(w, 7, 2*time.Second, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := in.generate(w, 7, 2*time.Second, time.Second)
		c, _ := in.generate(w, 8, 2*time.Second, time.Second)
		if a.digest() != b.digest() {
			t.Errorf("%s: equal seeds gave different traces", w)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: different seeds gave the same trace", w)
		}
		if a.Fixed == 0 || a.Fixed == len(a.Reads) {
			t.Errorf("%s: fixed phase holds %d of %d reads", w, a.Fixed, len(a.Reads))
		}
	}
}

// Two strata of one generator pair up by the product of their weights
// whatever the seeded offsets. With one shared step the offsets would fix
// the joint mix (how many drawn edges follow how many stamps), and each
// seed would get a different workload.
func TestStrataPairIndependently(t *testing.T) {
	const n = 20000
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b := newStratum(rng, stepA, stampWeights...), newStratum(rng, stepB, edgeWeights...)
		joint := map[[2]int]int{}
		for i := 0; i < n; i++ {
			joint[[2]int{a.next(), b.next()}]++
		}
		for i, wa := range stampWeights {
			for j, wb := range edgeWeights {
				if got := float64(joint[[2]int{i, j}]) / n; math.Abs(got-wa*wb) > 0.01 {
					t.Errorf("seed %d: %d stamps with %d drawn edges dealt %.3f of sessions, want %.3f", seed, i, j, got, wa*wb)
				}
			}
		}
	}
}

// Explore never sends the same query or similar lookup twice.
func TestExploreNoRepeats(t *testing.T) {
	in := testInputs(t)
	s, err := in.generate("explore", 1, 2*time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range s.Reads {
		if seen[string(r.Body)] {
			t.Fatalf("explore repeats %s", r.Body)
		}
		seen[string(r.Body)] = true
	}
}

// The tail percentile is the highest that leaves ten samples beyond it.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 99.9}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {20, 50}, {19, 0}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if c.want > 0 && beyond(c.n, c.want) < 10 {
			t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond(c.n, c.want), c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p := percentile(xs, 99); p != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990 (ten samples beyond)", p)
	}
}

func queryBody(t *testing.T, matched []string, facets []facetWire) []byte {
	t.Helper()
	b, err := json.Marshal(queryWire{Matched: matched, Facets: facets})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A deliberately wrong answer is counted as failed; the right one is not.
func TestOracleCountsWrongAnswers(t *testing.T) {
	in := testInputs(t)
	o := newOracle(in.spec, in.canned, in.corpus)
	q := graph.New("q")
	q.AddNode("C")
	q.AddNode("O")
	q.MustAddEdge(0, 1, "s")
	want := o.matches(q, 0)
	if len(want) < 2 {
		t.Fatalf("query matches %d graphs; the test needs at least two", len(want))
	}
	right := queryBody(t, want, o.expectedFacets(want))
	missing := queryBody(t, want[1:], o.expectedFacets(want[1:]))
	swapped := append([]string{want[1], want[0]}, want[2:]...)
	reordered := queryBody(t, swapped, o.expectedFacets(want))
	truncated, _ := json.Marshal(queryWire{Matched: want, Facets: o.expectedFacets(want), Truncated: true})

	reqs := []sent{}
	for _, body := range [][]byte{right, missing, reordered, truncated} {
		r := queryRequest(kindQuery, q)
		reqs = append(reqs, sent{req: &r, out: outcome{Status: 200, Body: body}})
	}
	run := &runner{in: in, or: o, res: newResult()}
	vs := make([]checked, len(reqs))
	for i := range reqs {
		vs[i] = run.checkOne(&reqs[i])
	}
	run.res.tally(reqs, vs)
	if run.res.Attempted != 4 || run.res.Failed != 3 || run.res.Correct {
		t.Fatalf("attempted %d failed %d correct %v, want 4, 3, false (failures %v)",
			run.res.Attempted, run.res.Failed, run.res.Correct, run.res.Failures)
	}
	if run.res.Failures["query.wrong"] != 2 || run.res.Failures["query.truncated"] != 1 {
		t.Errorf("failure classes %v", run.res.Failures)
	}
}

// An answer reflecting any corpus version live during the request passes;
// one reflecting a version outside that window fails.
func TestOracleVersionWindow(t *testing.T) {
	in := testInputs(t)
	o := newOracle(in.spec, in.canned, in.corpus)
	q := graph.New("q")
	q.AddNode("C")
	q.AddNode("O")
	q.MustAddEdge(0, 1, "s")
	before := o.matches(q, 0)
	o.addVersion(&batch{Removed: []string{before[0]}})
	after := o.matches(q, 1)
	body := queryBody(t, before, o.expectedFacets(before))
	if v, _ := o.checkQuery(q, body, 0, 1); v != verdictOK {
		t.Errorf("pre-batch answer rejected while the batch was in flight")
	}
	if v, _ := o.checkQuery(q, body, 1, 1); v != verdictWrong {
		t.Errorf("pre-batch answer accepted after the batch was acknowledged")
	}
	if v, _ := o.checkQuery(q, queryBody(t, after, o.expectedFacets(after)), 1, 1); v != verdictOK {
		t.Errorf("post-batch answer rejected")
	}
}

// A slow server builds a client-side backlog without making the
// generator late, so the run stays valid; a generator that releases
// requests late is flagged.
func TestGeneratorLatenessMarksRunInvalid(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Millisecond)
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	var items []timed
	reqs := make([]request, 40)
	for i := range reqs {
		reqs[i] = request{Kind: kindSpec}
		items = append(items, timed{req: &reqs[i], due: time.Duration(i) * time.Millisecond})
	}
	outs, _ := runOpenLoop(context.Background(), srv.URL, items, [2]int{1, 0}, 0, 0)
	res := newResult()
	for i, it := range items {
		res.fixed = append(res.fixed, sent{req: it.req, out: outs[i], due: it.due + warmup})
	}
	res.endToEnd("formulate", 1)
	if last := outs[len(outs)-1]; last.Sent-items[len(items)-1].due < 50*time.Millisecond {
		t.Fatalf("expected the slow server to queue requests; last waited %v", last.Sent-items[len(items)-1].due)
	}
	if res.Generator.LateP99 > ms(generatorLateLimit) {
		t.Fatalf("generator counted server backlog as its own lateness: p99 %.2f ms", res.Generator.LateP99)
	}
	for _, reason := range res.Reasons {
		if len(reason) >= 9 && reason[:9] == "generator" {
			t.Fatalf("run marked invalid for generator lateness: %v", res.Reasons)
		}
	}

	late := newResult()
	for i, it := range items {
		o := outs[i]
		o.Released = it.due + 20*time.Millisecond
		late.fixed = append(late.fixed, sent{req: it.req, out: o, due: it.due})
	}
	late.endToEnd("formulate", 1)
	if late.Valid {
		t.Fatal("a generator releasing every request 20ms late left the run valid")
	}
	// An invalid run reaches no one as a result: no contract line.
	var out bytes.Buffer
	if late.print(&out, false) {
		t.Error("print reported an invalid run as a result")
	}
	if strings.Contains(out.String(), `{"correct"`) {
		t.Errorf("an invalid run printed a result line:\n%s", out.String())
	}
	out.Reset()
	if !res.print(&out, false) || !strings.Contains(out.String(), `{"correct"`) {
		t.Errorf("a valid run printed no result line:\n%s", out.String())
	}
}

// A capacity step that aborts leaves the rest of its writer batches
// unsent. Every batch sent after that must still be valid against the
// corpus the server holds, so the server is never charged for the gap.
func TestWritesStayValidAfterUnsentBatches(t *testing.T) {
	in := testInputs(t)
	s, err := in.generate("maintain", 3, 4*time.Second, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(in.spec, in.canned, in.corpus)
	prefix, suffix, _ := prepHistory(in.corpus)
	for _, b := range append(prefix, suffix...) {
		o.addVersion(b)
	}
	c := graph.NewCorpus()
	for _, n := range o.versions[len(o.versions)-1] {
		c.MustAdd(o.graphs[n])
	}
	idx := gindex.BuildSharded(c, shards, 0)
	const step = 12 // batches per simulated step; the second half of each aborts
	applied := 0
	for i := range s.Writes {
		if i%step >= step/2 {
			continue
		}
		b := s.Writes[i].Batch
		if err := idx.ValidateBatch(b.Added, b.Removed); err != nil {
			t.Fatalf("batch %d after %d unsent ones: %v", i, i-applied, err)
		}
		if idx, _, err = idx.ApplyBatch(b.Added, b.Removed); err != nil {
			t.Fatal(err)
		}
		applied++
	}
	if applied < 20 {
		t.Fatalf("only %d batches applied; the test needs more", applied)
	}
}

// The traced replay's handler roots have no vqiserve-side children, so the
// time their children cover is time in the layers below vqiserve.
func TestReplayRootsCoverLowerLayersOnly(t *testing.T) {
	in := testInputs(t)
	s, err := in.generate("formulate", 5, 2*time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []*request
	for i := range s.Reads[:min(len(s.Reads), 120)] {
		reqs = append(reqs, &s.Reads[i])
	}
	r := &runner{cfg: config{workload: "formulate"}, in: in}
	_, rp, err := r.replayOnce(reqs, true)
	if err != nil {
		t.Fatal(err)
	}
	queries := 0
	for _, sp := range rp.tr.spans {
		isRoot := strings.HasPrefix(sp.Name, "vqiserve.")
		if isRoot != (sp.Parent < 0) && !strings.HasPrefix(sp.Name, "gindex.build") {
			t.Fatalf("span %q has parent %d", sp.Name, sp.Parent)
		}
		if sp.Name == "vqiserve.query" {
			queries++
		}
	}
	if queries == 0 {
		t.Fatal("no query replayed")
	}
}

// BENCHMARK.json names exactly the metrics a run prints, with their units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	res := newResult()
	res.endToEnd("formulate", 1)
	rp, err := newReplica(testInputs(t).spec, &tracer{})
	if err != nil {
		t.Fatal(err)
	}
	layers := (&runner{res: res}).perLayer(rp, 0)
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		got    map[string]metric
	}{{spec.EndToEnd, res.EndToEnd}, {spec.PerLayer, layers}} {
		if len(c.listed) != len(c.got) {
			t.Errorf("BENCHMARK.json lists %d metrics, the run prints %d", len(c.listed), len(c.got))
		}
		for _, m := range c.listed {
			if g, ok := c.got[m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("%s: listed with unit %q, printed as %+v (present %v)", m.Name, m.Unit, g, ok)
			}
		}
	}
}
