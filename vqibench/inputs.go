package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/canon"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/vqi"
	"repro/internal/workload"
)

// The corpus and the spec built from it are the same for every run: the
// workload seed varies the request trace only, so results of different
// seeds (and of the parent and child commits) serve identical data.
const (
	corpusSeed = 1
	corpusSize = 1500
	buildSeed  = 1
	// maintainPrepSeed drives the fixed WAL history of the maintain data
	// directory (the batches folded by compaction and the replayed suffix).
	maintainPrepSeed = 7
)

type kind uint8

const (
	kindSpec kind = iota
	kindQuery
	kindSuggest
	kindSimilar
	kindUpdate
	numKinds
)

var kindNames = [numKinds]string{"spec", "query", "suggest", "similar", "update"}
var kindRoutes = [numKinds]string{"/api/spec", "/api/query", "/api/suggest", "/api/similar", "/admin/update"}

func (k kind) String() string { return kindNames[k] }

// request is one scheduled HTTP request. Due is its offset from the start
// of the schedule it belongs to; the bytes in Body are what goes on the
// wire, the other fields are what the output checks need.
type request struct {
	Due   time.Duration
	Kind  kind
	Body  []byte
	Q     *graph.Graph // query and suggest: the posted pattern
	Sim   simSpec      // similar
	Batch *batch       // update
}

type simSpec struct {
	Graph  string `json:"graph"`
	K      int    `json:"k"`
	Verify bool   `json:"verify,omitempty"`
}

// batch is one /admin/update body: additions and removals by name.
type batch struct {
	Added   []*graph.Graph
	Removed []string
}

type wireEdge struct {
	U     int    `json:"u"`
	V     int    `json:"v"`
	Label string `json:"label"`
}

type wirePattern struct {
	Name  string     `json:"name,omitempty"`
	Nodes []string   `json:"nodes"`
	Edges []wireEdge `json:"edges"`
}

func toWire(g *graph.Graph, withName bool) wirePattern {
	w := wirePattern{Nodes: make([]string, g.NumNodes()), Edges: make([]wireEdge, 0, g.NumEdges())}
	if withName {
		w.Name = g.Name()
	}
	for i := range w.Nodes {
		w.Nodes[i] = g.NodeLabel(i)
	}
	for _, e := range g.Edges() {
		w.Edges = append(w.Edges, wireEdge{U: e.U, V: e.V, Label: e.Label})
	}
	return w
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of strings and ints are marshalled
	}
	return b
}

func queryRequest(k kind, q *graph.Graph) request {
	return request{Kind: k, Q: q, Body: mustJSON(toWire(q, false))}
}

func similarRequest(s simSpec) request {
	return request{Kind: kindSimilar, Sim: s, Body: mustJSON(s)}
}

func updateRequest(b *batch) request {
	body := struct {
		Add    []wirePattern `json:"add"`
		Remove []string      `json:"remove"`
	}{Remove: b.Removed}
	for _, g := range b.Added {
		body.Add = append(body.Add, toWire(g, true))
	}
	return request{Kind: kindUpdate, Batch: b, Body: mustJSON(body)}
}

// schedule is a nominal open-loop schedule. The fixed-rate phase sends
// Reads[:Fixed] at their Due offsets; the capacity search replays the rest
// of Reads in chunks, time-compressed to each step's rate. Writes (maintain
// only) keep their own fixed period in every phase.
type schedule struct {
	Rate   float64 // nominal offered rate of Reads, requests per second
	Reads  []request
	Fixed  int // Reads[:Fixed] form the fixed-rate phase
	Writes []request
	// WritePeriod is the writer's fixed inter-batch gap; Writes[i] is due
	// at i*WritePeriod in the fixed phase, and the capacity steps continue
	// the sequence at the same period.
	WritePeriod time.Duration
}

// digest is the request-trace digest: equal seeds must give equal digests.
func (s *schedule) digest() string {
	h := sha256.New()
	var buf [9]byte
	for _, part := range [][]request{s.Reads, s.Writes} {
		for _, r := range part {
			binary.LittleEndian.PutUint64(buf[:8], uint64(r.Due))
			buf[8] = byte(r.Kind)
			h.Write(buf[:])
			h.Write(r.Body)
		}
		h.Write([]byte{0xff})
	}
	binary.LittleEndian.PutUint64(buf[:8], uint64(s.Fixed))
	h.Write(buf[:8])
	return hex.EncodeToString(h.Sum(nil))
}

// inputs is everything the workloads are generated from.
type inputs struct {
	corpus *graph.Corpus
	spec   *vqi.Spec
	canned []*graph.Graph
}

func newInputs(corpus *graph.Corpus, spec *vqi.Spec) (*inputs, error) {
	in := &inputs{corpus: corpus, spec: spec}
	for _, ps := range spec.Patterns.Canned {
		g, err := ps.PatternGraph()
		if err != nil {
			return nil, err
		}
		in.canned = append(in.canned, g)
	}
	if len(in.canned) == 0 {
		return nil, fmt.Errorf("spec has no canned patterns")
	}
	return in, nil
}

// workloadRates are the fixed offered rates of each workload's read mix.
// Formulate and explore run at about an eighth of the capacity measured on
// a 2-core machine at the commit that introduced this benchmark: a request
// rarely finds both client connections busy, so a host slowdown lengthens
// latencies in proportion instead of through a growing queue, and a 30 s
// run still holds enough samples for the named tail percentiles. They are
// constants, not derived from a run, so a faster commit is measured at the
// same load as its parent.
var workloadRates = map[string]float64{
	"formulate": 200,
	"explore":   175,
	"maintain":  50,
}

// maintainWriteRate is the maintain writer's fixed batch rate.
const maintainWriteRate = 12

// warmup is the head of every fixed-rate phase that is sent and checked
// but left out of the latency statistics.
const warmup = time.Second

// capacityStream is how much nominal schedule the capacity search may
// consume beyond the fixed phase.
const capacityStream = 60 * time.Second

// generate builds the schedule of one workload: the fixed phase plus a
// stream of the same mix for the capacity search.
func (in *inputs) generate(name string, seed int64, fixed, stream time.Duration) (*schedule, error) {
	rate := workloadRates[name]
	total := fixed + stream
	rng := rand.New(rand.NewSource(seed))
	s := &schedule{Rate: rate}
	switch name {
	case "formulate":
		s.Reads = in.genFormulate(rng, rate, total)
	case "explore":
		var err error
		if s.Reads, err = in.genExplore(rng, rate, total); err != nil {
			return nil, err
		}
	case "maintain":
		if err := in.genMaintain(rng, s, seed, rate, total); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	s.Fixed = sort.Search(len(s.Reads), func(i int) bool { return s.Reads[i].Due >= fixed })
	return s, nil
}

// poissonGap draws one exponential inter-arrival gap at the given rate.
func poissonGap(rng *rand.Rand, rate float64) time.Duration {
	return time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
}

// zipfPick draws an index in [0,n) with weight 1/(i+1)^s.
func zipfPick(rng *rand.Rand, n int, s float64) int {
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
	}
	x := rng.Float64() * total
	for i := 0; i < n; i++ {
		x -= 1 / math.Pow(float64(i+1), s)
		if x < 0 {
			return i
		}
	}
	return n - 1
}

// --- formulate -------------------------------------------------------------

// Per-session shape: stamps and single-edge steps, and the think time
// between steps. Sessions arrive as a Poisson process whose rate is the
// workload rate over the mean requests per session. These proportions, and
// the others of the traffic mix below, are assumptions that no session log
// or user study backs; README.md lists each with its source.
var (
	stampWeights = []float64{0, 0.30, 0.45, 0.25} // P(1..3 canned stamps)
	edgeWeights  = []float64{0.40, 0.40, 0.20}    // P(0..2 drawn edges)
)

const (
	thinkMin       = 150 * time.Millisecond
	thinkMax       = 450 * time.Millisecond
	cannedZipfExpo = 1.0 // popularity of canned patterns, in panel order
	ringShare      = 0.3 // drawn edges that close a ring once three atoms exist
)

// stratum deals categories in proportion to weights (summing to 1) along a
// low-discrepancy sequence x, x+step, x+2·step, ... (mod 1) with a seeded
// offset x. Every run's mix then matches the weights closely instead of by
// chance, which keeps the spread between seeds down; the seed still decides
// which graphs and patterns fill each slot.
type stratum struct {
	w       []float64
	x, step float64
}

// Strata of one generator each take their own step. Two strata with one
// step advance in lockstep, so the seeded offsets would fix how their
// categories pair up (how many drawn edges follow how many stamps, say) and
// every seed would get a different joint mix. Square roots of distinct
// primes are rationally independent, so with these steps the pairs of any
// two strata follow the product of their weights whatever the offsets.
var (
	stepA = math.Sqrt2 - 1
	stepB = math.Sqrt(3) - 1
	stepC = math.Sqrt(5) - 2
	stepD = math.Sqrt(7) - 2
)

func newStratum(rng *rand.Rand, step float64, w ...float64) *stratum {
	return &stratum{w: w, x: rng.Float64(), step: step}
}

func (s *stratum) next() int {
	s.x = math.Mod(s.x+s.step, 1)
	x := s.x
	for i, p := range s.w {
		x -= p
		if x < 0 {
			return i
		}
	}
	return len(s.w) - 1
}

// uniform returns equal weights over n categories.
func uniform(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	return w
}

func meanRequestsPerSession() float64 {
	ms, me := 0.0, 0.0
	for i, p := range stampWeights {
		ms += float64(i) * p
	}
	for i, p := range edgeWeights {
		me += float64(i) * p
	}
	return 1 + 2*(ms+me)
}

func (in *inputs) genFormulate(rng *rand.Rand, rate float64, total time.Duration) []request {
	sessionRate := rate / meanRequestsPerSession()
	stamps, edges := newStratum(rng, stepA, stampWeights...), newStratum(rng, stepB, edgeWeights...)
	var out []request
	for t := poissonGap(rng, sessionRate); t < total; t += poissonGap(rng, sessionRate) {
		out = append(out, in.session(rng, t, stamps.next(), edges.next())...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Due < out[j].Due })
	// Sessions that started near the end may spill past total; the
	// capacity stream simply ends there.
	return out
}

// session simulates one user: read the spec, stamp canned patterns joined
// by a shared atom or a new bond, then maybe draw single edges; after
// every step the front end asks for suggestions and runs the query.
func (in *inputs) session(rng *rand.Rand, start time.Duration, stamps, edges int) []request {
	out := []request{{Due: start, Kind: kindSpec}}
	q := graph.New("query")
	t := start
	step := func() {
		t += thinkMin + time.Duration(rng.Int63n(int64(thinkMax-thinkMin)))
		snap := q.Clone()
		sug := queryRequest(kindSuggest, snap)
		sug.Due = t
		qr := queryRequest(kindQuery, snap)
		qr.Due = t
		out = append(out, sug, qr)
	}
	for i := 0; i < stamps; i++ {
		p := in.canned[zipfPick(rng, len(in.canned), cannedZipfExpo)]
		in.stamp(rng, q, p)
		step()
	}
	for i := 0; i < edges; i++ {
		in.drawEdge(rng, q)
		step()
	}
	return out
}

func (in *inputs) edgeLabel(rng *rand.Rand) string {
	ls := in.spec.Attribute.EdgeLabels
	if len(ls) == 0 {
		return ""
	}
	return ls[int(float64(len(ls))*rng.Float64()*rng.Float64())]
}

func (in *inputs) nodeLabel(rng *rand.Rand) string {
	ls := in.spec.Attribute.NodeLabels
	if len(ls) == 0 {
		return ""
	}
	return ls[int(float64(len(ls))*rng.Float64()*rng.Float64())]
}

// stamp adds pattern p to q. After the first stamp the new copy joins the
// drawn region: half the time by merging one of its atoms into an existing
// atom with the same label, otherwise (or when no label matches) by a new
// bond between a random new atom and a random existing one.
func (in *inputs) stamp(rng *rand.Rand, q, p *graph.Graph) {
	n0 := q.NumNodes()
	remap := make([]graph.NodeID, p.NumNodes())
	merged := -1
	if n0 > 0 && rng.Intn(2) == 0 {
		type pair struct{ u, v int }
		var pairs []pair
		for v := 0; v < p.NumNodes(); v++ {
			for u := 0; u < n0; u++ {
				if q.NodeLabel(u) == p.NodeLabel(v) {
					pairs = append(pairs, pair{u, v})
				}
			}
		}
		if len(pairs) > 0 {
			pr := pairs[rng.Intn(len(pairs))]
			merged = pr.v
			remap[pr.v] = pr.u
		}
	}
	for v := 0; v < p.NumNodes(); v++ {
		if v != merged {
			remap[v] = q.AddNode(p.NodeLabel(v))
		}
	}
	for _, e := range p.Edges() {
		u, v := remap[e.U], remap[e.V]
		if u != v && !q.HasEdge(u, v) {
			q.MustAddEdge(u, v, e.Label)
		}
	}
	if n0 > 0 && merged < 0 {
		var fresh graph.NodeID
		for {
			fresh = remap[rng.Intn(p.NumNodes())]
			if fresh >= n0 {
				break
			}
		}
		q.MustAddEdge(rng.Intn(n0), fresh, in.edgeLabel(rng))
	}
}

// drawEdge is one edge-at-a-time gesture: usually a new atom bonded to an
// existing one, sometimes a bond closing a ring between two existing
// non-adjacent atoms.
func (in *inputs) drawEdge(rng *rand.Rand, q *graph.Graph) {
	n := q.NumNodes()
	if n >= 3 && rng.Float64() < ringShare {
		for try := 0; try < 10; try++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !q.HasEdge(u, v) {
				q.MustAddEdge(u, v, in.edgeLabel(rng))
				return
			}
		}
	}
	anchor := rng.Intn(n)
	v := q.AddNode(in.nodeLabel(rng))
	q.MustAddEdge(anchor, v, in.edgeLabel(rng))
}

// --- explore ---------------------------------------------------------------

// Explore mix: similar lookups by corpus graph name (a third of them with
// VF2 verification), and subgraph queries drawn from corpus graphs or from
// the query-log topology mix. Nothing is sent twice. The shares are
// assumptions (README.md); only internal/workload's topology mix has a
// published source.
const (
	exploreSimilarShare = 0.45
	exploreSampledShare = 0.6 // of queries: connected subgraphs of corpus graphs
	exploreMinEdges     = 4
	exploreMaxEdges     = 16
)

// similarKs is the range of top-k sizes drawn for similar lookups; with
// the verify flag it makes the lookup key space (names x 20 x 2) far larger
// than any run draws from it.
const similarMinK, similarMaxK = 5, 24

// maxDraws bounds the redraws that keep explore free of repeats.
const maxDraws = 1000

func (in *inputs) genExplore(rng *rand.Rand, rate float64, total time.Duration) ([]request, error) {
	seenQ := make(map[string]bool)
	seenS := make(map[simSpec]bool)
	ls := workload.FromCorpus(in.corpus)
	kinds := newStratum(rng, stepA, 1-exploreSimilarShare, exploreSimilarShare)
	sources := newStratum(rng, stepB, exploreSampledShare, 1-exploreSampledShare)
	sizes := newStratum(rng, stepC, uniform(exploreMaxEdges-exploreMinEdges+1)...)
	verify := newStratum(rng, stepD, 2.0/3, 1.0/3)
	var out []request
	for t := poissonGap(rng, rate); t < total; t += poissonGap(rng, rate) {
		r, ok := request{}, false
		similar := kinds.next() == 1
		for draw := 0; draw < maxDraws && !ok; draw++ {
			if similar {
				s := simSpec{
					Graph:  in.corpus.Name(rng.Intn(in.corpus.Len())),
					K:      similarMinK + rng.Intn(similarMaxK-similarMinK+1),
					Verify: verify.next() == 1,
				}
				if ok = !seenS[s]; ok {
					seenS[s] = true
					r = similarRequest(s)
				}
				continue
			}
			var q *graph.Graph
			if sources.next() == 0 {
				g := in.corpus.Graph(rng.Intn(in.corpus.Len()))
				q = edgeSubgraph(rng, g, exploreMinEdges+sizes.next())
			} else if qs, err := workload.Generate(1, ls, workload.Options{MinNodes: 4, MaxNodes: 10}, rng.Int63()); err == nil {
				q = qs[0].G
			}
			if q == nil {
				continue
			}
			if key := canon.String(q); !seenQ[key] {
				seenQ[key], ok = true, true
				r = queryRequest(kindQuery, q)
			}
		}
		if !ok {
			return nil, fmt.Errorf("explore: no unseen request after %d draws; the corpus is too small for the schedule", maxDraws)
		}
		r.Due = t
		out = append(out, r)
	}
	return out, nil
}

// edgeSubgraph grows a connected subgraph of g with exactly m edges from a
// random edge, each step adding a random edge incident to the nodes taken
// so far. It returns nil when g has fewer than m edges in reach.
func edgeSubgraph(rng *rand.Rand, g *graph.Graph, m int) *graph.Graph {
	if g.NumEdges() < m {
		return nil
	}
	edges := g.Edges()
	taken := map[graph.EdgeID]bool{}
	nodes := map[graph.NodeID]graph.NodeID{}
	q := graph.New("query")
	add := func(id graph.EdgeID) {
		taken[id] = true
		e := edges[id]
		for _, v := range []graph.NodeID{e.U, e.V} {
			if _, ok := nodes[v]; !ok {
				nodes[v] = q.AddNode(g.NodeLabel(v))
			}
		}
		q.MustAddEdge(nodes[e.U], nodes[e.V], e.Label)
	}
	add(rng.Intn(len(edges)))
	for q.NumEdges() < m {
		var frontier []graph.EdgeID
		for v := range nodes {
			g.VisitNeighbors(v, func(_ graph.NodeID, id graph.EdgeID) bool {
				if !taken[id] {
					frontier = append(frontier, id)
				}
				return true
			})
		}
		if len(frontier) == 0 {
			return nil
		}
		// Map iteration order is random; sort so the draw depends on rng only.
		sort.Ints(frontier)
		frontier = dedupSorted(frontier)
		add(frontier[rng.Intn(len(frontier))])
	}
	return q
}

func dedupSorted(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// --- maintain --------------------------------------------------------------

// Maintain reads draw Zipf-skewed from a hot set far smaller than the
// 512-entry caches; the single writer's batches each add and remove a few
// compounds. The sizes, skew and batch shape are assumptions (README.md).
const (
	hotSetSize    = 96
	hotMinEdges   = 3
	hotMaxEdges   = 10
	batchAdds     = 2
	batchRemoves  = 1
	prepBatches   = 24 // folded into the compacted snapshot
	suffixBatches = 16 // left in the WAL and replayed at every boot
	hotZipfExpo   = 1.0
	addedPrefix   = "w"
)

// applyBatch returns the corpus order after batch b, the discipline the
// server applies: removals keep the relative order of the rest, additions
// append. The schedule, the closing probes and the oracle all use it.
func applyBatch(names []string, b *batch) []string {
	rm := map[string]bool{}
	for _, n := range b.Removed {
		rm[n] = true
	}
	next := make([]string, 0, len(names)+len(b.Added))
	for _, n := range names {
		if !rm[n] {
			next = append(next, n)
		}
	}
	for _, g := range b.Added {
		next = append(next, g.Name())
	}
	return next
}

func corpusNames(c *graph.Corpus) []string {
	names := make([]string, c.Len())
	for i := range names {
		names[i] = c.Name(i)
	}
	return names
}

// randomBatch draws batchAdds fresh compounds and batchRemoves names from
// pool.
func randomBatch(rng *rand.Rand, pool []string, prefix string, serial int) *batch {
	b := &batch{}
	for i := 0; i < batchAdds; i++ {
		name := fmt.Sprintf("%s%d-%d", prefix, serial, i)
		b.Added = append(b.Added, datagen.Chemical(rng, name, datagen.ChemicalOptions{}))
	}
	picked := map[string]bool{}
	for len(b.Removed) < batchRemoves {
		n := pool[rng.Intn(len(pool))]
		if !picked[n] {
			picked[n] = true
			b.Removed = append(b.Removed, n)
		}
	}
	return b
}

// prepHistory is the fixed maintain data-directory history: the batches
// folded by compaction, then the WAL suffix every boot replays. All of
// them are applied before the server boots, so each may remove a graph an
// earlier one added. after is the corpus order they leave.
func prepHistory(c *graph.Corpus) (prefix, suffix []*batch, after []string) {
	rng := rand.New(rand.NewSource(maintainPrepSeed))
	names := corpusNames(c)
	for i := 0; i < prepBatches+suffixBatches; i++ {
		b := randomBatch(rng, names, "p", i)
		names = applyBatch(names, b)
		if i < prepBatches {
			prefix = append(prefix, b)
		} else {
			suffix = append(suffix, b)
		}
	}
	return prefix, suffix, names
}

func (in *inputs) genMaintain(rng *rand.Rand, s *schedule, seed int64, rate float64, total time.Duration) error {
	// The writer removes only graphs live at boot, each at most once, never
	// one an earlier writer batch added. Every batch then stays valid
	// whichever earlier batches went unsent, as they do when a capacity
	// step aborts.
	_, _, pool := prepHistory(in.corpus)
	seen := map[string]bool{}
	var hot []*graph.Graph
	sizes := newStratum(rng, stepA, uniform(hotMaxEdges-hotMinEdges+1)...)
	for len(hot) < hotSetSize {
		g := in.corpus.Graph(rng.Intn(in.corpus.Len()))
		q := edgeSubgraph(rng, g, hotMinEdges+sizes.next())
		if q == nil {
			continue
		}
		if key := canon.String(q); !seen[key] {
			seen[key] = true
			hot = append(hot, q)
		}
	}
	for t := poissonGap(rng, rate); t < total; t += poissonGap(rng, rate) {
		r := queryRequest(kindQuery, hot[zipfPick(rng, len(hot), hotZipfExpo)])
		r.Due = t
		s.Reads = append(s.Reads, r)
	}
	s.WritePeriod = time.Second / maintainWriteRate
	nWrites := int(total/s.WritePeriod) + 1
	prefix := fmt.Sprintf("%s%d-", addedPrefix, seed)
	for i := 0; i < nWrites; i++ {
		if len(pool) < batchRemoves {
			return fmt.Errorf("maintain: the corpus runs out of removable graphs after %d batches", i)
		}
		b := randomBatch(rng, pool, prefix, i)
		pool = applyBatch(pool, &batch{Removed: b.Removed})
		r := updateRequest(b)
		r.Due = time.Duration(i) * s.WritePeriod
		s.Writes = append(s.Writes, r)
	}
	return nil
}
