package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ann"
	"repro/internal/canon"
	"repro/internal/gindex"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/qcache"
	"repro/internal/results"
	"repro/internal/store"
	"repro/internal/vqi"
)

// The traced run replays the fixed-phase requests in-process, one at a
// time, through the public entry points the vqiserve handlers call, in
// handler order, with a benchmark-side span around each call. Spans are
// kept in memory and written out when the replay ends. The replay runs
// twice on fresh state, with spans off and on; the difference is the
// tracing overhead. End-to-end metrics never come from here.
//
// The replay starts from the already decoded request and caches answers
// unencoded, as the handlers do; it has no stand-in for vqiserve's own
// decode, middleware and encode. A handler root span therefore covers only
// the layers below vqiserve, and what the server spends beyond them is
// vqiserve.unattributed_ms.
//
// gindex.search_shard covers both the candidate filter and VF2
// verification (Sharded.SearchShardCtx); the two layers are split by the
// counters of the untraced run, not by time.

type span struct {
	Name   string        `json:"name"`
	Req    int           `json:"req"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// start opens a span under parent (-1 for a request root) and returns its
// id, or -1 with tracing off.
func (t *tracer) start(name string, req, parent int) int {
	if !t.on {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// replica is the in-process copy of one server's state: the same corpus,
// spec and index configuration, and the same five caches.
type replica struct {
	spec   *vqi.Spec
	canned []*pattern.Pattern
	corpus *graph.Corpus
	idx    *gindex.Sharded
	st     *store.Store

	qc      *qcache.Cache[cachedAnswer]
	shardQC *qcache.Cache[gindex.ShardResult]
	simQC   *qcache.Cache[similarWire]
	planQC  *qcache.Cache[*plan.Plan]
	viewQC  *qcache.Cache[gindex.ShardResult]

	tr *tracer

	// Counts gathered while replaying.
	executed, facetCalls, facetChecks, facetHits int
	suggests, suggestChecks, suggestHits         int
	qErrLogSum                                   float64
	qErrN                                        int
	skewSum, searchMsSum                         float64
	skewN, searchN                               int
}

// cachedAnswer is what the response cache holds: the answer, unencoded.
type cachedAnswer struct {
	matched []string
	facets  []results.Facet
}

// serverCacheSize is vqiserve's default -cache-size.
const serverCacheSize = 512

func newReplica(spec *vqi.Spec, tr *tracer) (*replica, error) {
	panel, err := spec.AllPatterns()
	if err != nil {
		return nil, err
	}
	return &replica{
		spec:    spec,
		canned:  panel[len(spec.Patterns.Basic):],
		qc:      qcache.New[cachedAnswer](serverCacheSize),
		shardQC: qcache.New[gindex.ShardResult](serverCacheSize),
		simQC:   qcache.New[similarWire](serverCacheSize),
		planQC:  qcache.New[*plan.Plan](serverCacheSize),
		viewQC:  qcache.New[gindex.ShardResult](serverCacheSize),
		tr:      tr,
	}, nil
}

// annConfig is vqiserve's -ann configuration with default knobs.
func annConfig() ann.Config { return ann.Config{Center: true} }

// bootBuild mirrors the in-memory boot: build the ANN-enabled sharded index.
func (rp *replica) bootBuild(c *graph.Corpus) {
	id := rp.tr.start("gindex.build", -1, -1)
	rp.corpus = c
	rp.idx = gindex.BuildShardedANN(c, shards, 0, annConfig())
	rp.tr.end(id)
}

// bootDurable mirrors the -data-dir -mmap boot: store.Open, section
// restore, then the WAL suffix through ApplyBatch.
func (rp *replica) bootDurable(dir string) error {
	policy, every, err := store.ParseSyncPolicy("always")
	if err != nil {
		return err
	}
	id := rp.tr.start("store.open", -1, -1)
	st, rec, err := store.Open(context.Background(), dir, store.Options{Sync: policy, SyncEvery: every, Mmap: true})
	rp.tr.end(id)
	if err != nil {
		return err
	}
	rp.st, rp.corpus = st, rec.Corpus
	secs := map[int][]byte{}
	for _, s := range rec.Sections {
		if rec.Meta.Shards == shards && s.Shard < len(rec.Meta.Epochs) && s.Epoch == rec.Meta.Epochs[s.Shard] {
			secs[s.Shard] = s.Data
		}
	}
	cfg := annConfig()
	id = rp.tr.start("gindex.restore", -1, -1)
	rp.idx, _ = gindex.RestoreSharded(rec.Corpus, shards, 0, &cfg, secs)
	rp.tr.end(id)
	if rec.Meta.Shards == rp.idx.NumShards() {
		rp.idx.RestoreEpochs(rec.Meta.Epochs)
	}
	for _, b := range rec.Batches {
		id = rp.tr.start("gindex.apply", -1, -1)
		err := rp.apply(b.Added, b.Removed)
		rp.tr.end(id)
		if err != nil {
			return fmt.Errorf("replaying WAL seq %d: %w", b.Seq, err)
		}
	}
	return nil
}

// apply mirrors vqiserve's applyValidatedLocked.
func (rp *replica) apply(added []*graph.Graph, removed []string) error {
	next, _, err := rp.idx.ApplyBatch(added, removed)
	if err != nil {
		return err
	}
	rm := map[string]bool{}
	for _, n := range removed {
		rm[n] = true
	}
	nc := graph.NewCorpus()
	rp.corpus.EachName(func(i int, name string) {
		if !rm[name] {
			nc.MustAdopt(rp.corpus, i)
		}
	})
	for _, g := range added {
		nc.MustAdd(g)
	}
	rp.corpus, rp.idx = nc, next
	return nil
}

func (rp *replica) close() {
	if rp.st != nil {
		rp.st.Close()
	}
}

// replay runs one request the way its handler does.
func (rp *replica) replay(ctx context.Context, id int, r *request) error {
	root := rp.tr.start("vqiserve."+r.Kind.String(), id, -1)
	defer rp.tr.end(root)
	switch r.Kind {
	case kindSpec:
		s := rp.tr.start("vqi.spec_encode", id, root)
		_, err := rp.spec.Encode()
		rp.tr.end(s)
		return err
	case kindQuery:
		return rp.query(ctx, id, root, r)
	case kindSuggest:
		q := r.Q
		s := rp.tr.start("vqi.suggest", id, root)
		sugs, err := vqi.SuggestForSpec(rp.spec, q, 8)
		rp.tr.end(s)
		if err != nil {
			return err
		}
		rp.suggests++
		rp.suggestHits += len(sugs)
		for _, ps := range append(append([]vqi.PatternSpec(nil), rp.spec.Patterns.Basic...), rp.spec.Patterns.Canned...) {
			if len(ps.Edges) > q.NumEdges() {
				rp.suggestChecks++
			}
		}
		return nil
	case kindSimilar:
		return rp.similar(ctx, id, root, r)
	case kindUpdate:
		return rp.update(id, root, r)
	}
	return nil
}

func (rp *replica) query(ctx context.Context, id, root int, r *request) error {
	q := r.Q
	idx, corpus := rp.idx, rp.corpus
	cfg := pattern.PlanConfig()
	cfg.ANN = true
	cfg.HasViewCache = true
	s := rp.tr.start("canon", id, root)
	planBase := canon.String(q) + "|m=auto"
	rp.tr.end(s)
	s = rp.tr.start("qcache.plan", id, root)
	pl := rp.planQC.Do(qcache.PlanKey(planBase, idx.Epochs()), func() (*plan.Plan, bool) {
		c := rp.tr.start("plan.compile", id, s)
		defer rp.tr.end(c)
		return idx.CompilePlan(q, cfg), true
	})
	rp.tr.end(s)
	s = rp.tr.start("canon", id, root)
	key := qcache.EpochKey(canon.String(q)+"|plan=auto", idx.Epochs())
	rp.tr.end(s)
	s = rp.tr.start("qcache.response", id, root)
	rp.qc.Do(key, func() (cachedAnswer, bool) {
		rp.executed++
		res := rp.search(ctx, id, s, idx, q, pl)
		rp.recordQError(pl.EstCandidates, res.Candidates)
		f := rp.tr.start("results.facets", id, s)
		fs, _ := results.Facets(res.Matches, corpus, rp.canned, pattern.MatchOptions())
		rp.tr.end(f)
		rp.facetCalls++
		rp.facetChecks += len(res.Matches) * len(rp.canned)
		for _, fc := range fs {
			rp.facetHits += len(fc.Graphs)
		}
		return cachedAnswer{matched: res.Matches, facets: fs}, !res.Truncated
	})
	rp.tr.end(s)
	return nil
}

// search mirrors vqiserve's searchSharded under the plan.
func (rp *replica) search(ctx context.Context, id, parent int, idx *gindex.Sharded, q *graph.Graph, pl *plan.Plan) gindex.Result {
	opts := pattern.MatchOptions()
	if pl.Strategy != plan.StrategyMonolithic {
		s := rp.tr.start("plan.search", id, parent)
		defer rp.tr.end(s)
		return idx.SearchPlan(ctx, q, opts, pl, gindex.PlanOptions{Views: rp.viewQC})
	}
	opts.Order = pl.Order
	s := rp.tr.start("canon", id, parent)
	base := canon.String(q)
	rp.tr.end(s)
	k := idx.NumShards()
	partials := make([]gindex.ShardResult, k)
	durs := make([]time.Duration, k)
	computed := make([]bool, k)
	t0 := time.Now()
	par.ForEachN(k, 0, func(si int) {
		c := rp.tr.start("qcache.shard", id, parent)
		partials[si] = rp.shardQC.Do(qcache.ShardKey(base, si, idx.Epoch(si)), func() (gindex.ShardResult, bool) {
			x := rp.tr.start("gindex.search_shard", id, c)
			st := time.Now()
			r := idx.SearchShardCtx(ctx, si, q, opts)
			durs[si], computed[si] = time.Since(st), true
			rp.tr.end(x)
			return r, !r.Truncated
		})
		rp.tr.end(c)
	})
	wall := time.Since(t0)
	rp.recordSkew(durs, computed, wall)
	m := rp.tr.start("gindex.merge", id, parent)
	defer rp.tr.end(m)
	return gindex.MergeShardResults(partials, 0)
}

// recordSkew keeps the slowest-shard-over-mean ratio of a fan-out whose
// every shard was computed, and the fan-out's wall time.
func (rp *replica) recordSkew(durs []time.Duration, computed []bool, wall time.Duration) {
	var sum, maxd time.Duration
	for i, d := range durs {
		if !computed[i] {
			return
		}
		sum += d
		maxd = max(maxd, d)
	}
	if sum > 0 {
		rp.skewSum += float64(maxd) / (float64(sum) / float64(len(durs)))
		rp.skewN++
	}
	rp.searchMsSum += ms(wall)
	rp.searchN++
}

// recordQError accumulates log q-error of the plan's candidate estimate.
func (rp *replica) recordQError(est float64, actual int) {
	e, a := est+1, float64(actual)+1
	rp.qErrLogSum += math.Abs(math.Log(e / a))
	rp.qErrN++
}

func (rp *replica) similar(ctx context.Context, id, root int, r *request) error {
	req := r.Sim
	idx := rp.idx
	q, ok := rp.corpus.ByName(req.Graph)
	if !ok {
		return fmt.Errorf("unknown graph %q", req.Graph)
	}
	key := qcache.EpochKey(fmt.Sprintf("sim\x00%s\x00%d\x00%v\x00%s", "", req.K, req.Verify, "name\x00"+req.Graph), idx.Epochs())
	s := rp.tr.start("qcache.similar", id, root)
	rp.simQC.Do(key, func() (similarWire, bool) {
		a := rp.tr.start("ann.similar", id, s)
		res, _ := idx.SimilarCtx(ctx, q, gindex.SimilarOptions{K: req.K, Verify: req.Verify, VerifyOpts: pattern.MatchOptions()})
		rp.tr.end(a)
		return similarWire{Truncated: res.Truncated}, !res.Truncated
	})
	rp.tr.end(s)
	return nil
}

func (rp *replica) update(id, root int, r *request) error {
	added, removed := r.Batch.Added, r.Batch.Removed
	s := rp.tr.start("gindex.validate", id, root)
	err := rp.idx.ValidateBatch(added, removed)
	rp.tr.end(s)
	if err != nil {
		return err
	}
	if rp.st != nil {
		s = rp.tr.start("store.append", id, root)
		_, err = rp.st.Append(store.Batch{Added: added, Removed: removed})
		rp.tr.end(s)
		if err != nil {
			return err
		}
	}
	s = rp.tr.start("gindex.apply", id, root)
	err = rp.apply(added, removed)
	rp.tr.end(s)
	return err
}

// replayOnce boots a fresh replica and replays reqs, returning the replay
// wall time (boot excluded) and the replica.
func (r *runner) replayOnce(reqs []*request, on bool) (time.Duration, *replica, error) {
	tr := &tracer{on: on, t0: time.Now()}
	rp, err := newReplica(r.in.spec, tr)
	if err != nil {
		return 0, nil, err
	}
	if r.cfg.workload == "maintain" {
		dir := filepath.Join(r.dir, fmt.Sprintf("data-replay-%v", on))
		if err := copyDir(filepath.Join(r.dir, "data0"), dir); err != nil {
			return 0, nil, err
		}
		if err := rp.bootDurable(dir); err != nil {
			return 0, nil, err
		}
	} else {
		rp.bootBuild(r.in.corpus)
	}
	defer rp.close()
	ctx := context.Background()
	start := time.Now()
	for i, q := range reqs {
		if err := rp.replay(ctx, i, q); err != nil {
			return 0, nil, fmt.Errorf("replaying request %d (%s): %w", i, q.Kind, err)
		}
	}
	return time.Since(start), rp, nil
}

// traced runs the replay with spans off and on, writes the spans, and
// fills the per-layer metrics.
func (r *runner) traced() error {
	var reqs []*request
	for _, s := range r.res.fixed {
		reqs = append(reqs, s.req)
	}
	off, _, err := r.replayOnce(reqs, false)
	if err != nil {
		return err
	}
	on, rp, err := r.replayOnce(reqs, true)
	if err != nil {
		return err
	}
	// The spec build is not replayed: its layer rows are vqibuild's own
	// stage spans from the -metrics table of this run's build.
	r.res.SelfTimes = selfTimes(rp.tr.spans)
	for _, name := range sortedKeys(r.res.BuildStages) {
		d := 1e3 * r.res.BuildStages[name]
		r.res.SelfTimes = append(r.res.SelfTimes, selfRow{Name: name, Calls: 1, Total: d, Self: d})
	}
	if err := writeSpans(filepath.Join(r.cfg.work, "results", fmt.Sprintf("spans-%s-seed%d.jsonl", r.cfg.workload, r.cfg.seed)), rp.tr.spans); err != nil {
		return err
	}
	r.res.PerLayer = r.perLayer(rp, 100*ratio(float64(on-off), float64(off)))
	return nil
}

func writeSpans(path string, spans []span) error {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, s := range spans {
		enc.Encode(s)
	}
	return writeFile(path, []byte(b.String()))
}

type selfRow struct {
	Name  string  `json:"name"`
	Calls int     `json:"calls"`
	Total float64 `json:"total_ms"`
	Self  float64 `json:"self_ms"`
}

// selfTimes aggregates spans by name: total time, and self time — each
// span's duration minus the part of its interval that its children
// cover.
func selfTimes(spans []span) []selfRow {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	rows := map[string]*selfRow{}
	for i, s := range spans {
		row := rows[s.Name]
		if row == nil {
			row = &selfRow{Name: s.Name}
			rows[s.Name] = row
		}
		d := s.End - s.Start
		row.Calls++
		row.Total += ms(d)
		row.Self += ms(d - covered(spans, children[i], s.Start, s.End))
	}
	out := make([]selfRow, 0, len(rows))
	for _, name := range sortedKeys(rows) {
		out = append(out, *rows[name])
	}
	return out
}

// covered is the length of the union of the child intervals, clipped to
// [lo, hi].
func covered(spans []span, kids []int, lo, hi time.Duration) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, lo), min(spans[k].End, hi)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

func printSelfTimes(w io.Writer, rows []selfRow) {
	fmt.Fprintf(w, "  %-24s %8s %12s %12s\n", "span (traced replay)", "calls", "total ms", "self ms")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-24s %8d %12.3f %12.3f\n", r.Name, r.Calls, r.Total, r.Self)
	}
}
