package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/ann"
	"repro/internal/gindex"
	"repro/internal/graph"
	"repro/internal/store"
)

// sent is one request as it went out, with the wall-clock base of the
// phase it belonged to.
type sent struct {
	req   *request
	out   outcome
	due   time.Duration
	base  time.Time
	phase string
	// vlo..vhi are the corpus versions the answer may reflect: those live
	// at some point while the request was in flight.
	vlo, vhi int
}

func (s *sent) sentAt() time.Time { return s.base.Add(s.out.Sent) }
func (s *sent) doneAt() time.Time { return s.base.Add(s.out.Done) }
func (s *sent) latency() time.Duration {
	return s.out.Done - s.due
}

// serverArgs is the fixed serving configuration: the defaults plus -ann and
// a pinned shard count; maintain adds the durable mapped boot.
func (r *runner) serverArgs(dataDir string, mmap bool) []string {
	args := []string{"-spec", filepath.Join(r.dir, "spec.json"), "-ann", "-shards", fmt.Sprint(shards)}
	if dataDir == "" {
		return append(args, "-data", filepath.Join(r.dir, "corpus.lg"))
	}
	args = append(args, "-data-dir", dataDir, "-wal-sync", "always")
	if mmap {
		args = append(args, "-mmap")
	}
	return args
}

func (r *runner) vqiserve() string { return filepath.Join(r.cfg.bin, "vqiserve") }

// serve runs set-up and every TCP phase, then checks all answers.
func (r *runner) serve() error {
	ctx := context.Background()
	t0 := time.Now()
	var d0 string
	if r.cfg.workload == "maintain" {
		var err error
		if d0, err = r.prepDataDir(); err != nil {
			return fmt.Errorf("preparing the maintain data directory: %w", err)
		}
	}
	// Set-up: the first half of the timed boots (see setupBoots), then the
	// boot that serves the run.
	r.lap("prep_data_dir", t0)
	t0 = time.Now()
	pre := setupBoots / 2
	if err := r.timeBoots(d0, 0, pre); err != nil {
		return err
	}
	srv, took, err := r.boot(d0, pre)
	if err != nil {
		return err
	}
	r.res.SetupBoots = append(r.res.SetupBoots, took)
	r.env.ServeCmd = append([]string{r.vqiserve()}, r.serverArgs(r.bootDir(d0, pre), true)...)
	if fi, err := snapshotBytes(r.bootDir(d0, pre)); err == nil {
		r.res.SnapshotBytes = fi
	}
	stopped := false
	stopRSS := r.watchPeakRSS(srv)
	defer func() {
		if !stopped {
			stopRSS()
			srv.kill()
		}
	}()
	base := "http://" + srv.addr
	if r.res.BootMetrics, err = srv.scrape(ctx); err != nil {
		return err
	}

	r.lap("boots", t0)
	t0 = time.Now()
	// Fixed-rate phase.
	fixedDur := warmup + time.Duration(r.cfg.seconds)*time.Second
	conns := laneConns(runtime.NumCPU(), len(r.sched.Writes) > 0)
	var items []timed
	for i := range r.sched.Reads[:r.sched.Fixed] {
		rq := &r.sched.Reads[i]
		items = append(items, timed{req: rq, due: rq.Due})
	}
	nw := 0
	for nw < len(r.sched.Writes) && r.sched.Writes[nw].Due < fixedDur {
		rq := &r.sched.Writes[nw]
		items = append(items, timed{req: rq, due: rq.Due, lane: 1})
		nw++
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].due < items[j].due })
	before := r.scrape(ctx, srv)
	start := time.Now()
	outs, _ := runOpenLoop(ctx, base, items, conns, 0, 0)
	r.res.PhaseMetrics = delta(before, r.scrape(ctx, srv))
	var all []sent
	for i, it := range items {
		all = append(all, sent{req: it.req, out: outs[i], due: it.due, base: start, phase: "fixed"})
	}
	r.res.fixed = all
	fixedStep := judge(r.sched.Rate, items, outs, fixedDur, conns[0], false)
	r.lap("fixed", t0)

	// Capacity search, in --workload all only: its bisection over short
	// steps spreads too widely between runs on a small shared host to gate
	// a single run on.
	t0 = time.Now()
	if r.cfg.capacity {
		steps, capSent := r.capacity(ctx, base, conns, nw, fixedStep)
		r.res.CapacitySteps = steps
		all = append(all, capSent...)
	}
	r.lap("capacity", t0)

	// Closing probes: maintain checks that every acknowledged batch is
	// visible; formulate and maintain score similarity recall.
	t0 = time.Now()
	probes := r.closingProbes(all)
	var pitems []timed
	for i := range probes {
		pitems = append(pitems, timed{req: &probes[i]})
	}
	pstart := time.Now()
	pouts, _ := runOpenLoop(ctx, base, pitems, [2]int{1, 0}, 0, 0)
	for i, it := range pitems {
		all = append(all, sent{req: it.req, out: pouts[i], base: pstart, phase: "probe"})
	}
	r.lap("probes", t0)

	stopRSS()
	stopped = true
	if dead, why := srv.exited(0); dead {
		r.res.crashed(why)
	} else if err := srv.stop(); err != nil {
		r.res.crashed(fmt.Sprintf("unclean shutdown: %v", err))
	}

	// The second half of set-up's boots and the rebuilds of the spec,
	// timed after the measured phases.
	t0 = time.Now()
	if err := r.timeBoots(d0, pre+1, setupBoots-pre-1); err != nil {
		return err
	}
	for i := 1; i < buildRuns; i++ {
		if err := r.timeBuild(filepath.Join(r.dir, "spec-rebuild.json")); err != nil {
			return err
		}
	}
	r.res.SetupSeconds = median(r.res.SetupBoots)
	fastest := 0
	for i, s := range r.res.BuildRuns {
		if s < r.res.BuildRuns[fastest] {
			fastest = i
		}
	}
	r.res.BuildSeconds = r.res.BuildRuns[fastest]
	r.res.BuildStages = r.buildStages[fastest]
	r.lap("late_setup", t0)

	r.res.all = all
	t0 = time.Now()
	defer r.lap("check", t0)
	return r.checkAll(all)
}

// bootDir is boot i's copy of the maintain data directory d0, or "" when
// the server boots from the corpus file.
func (r *runner) bootDir(d0 string, i int) string {
	if d0 == "" {
		return ""
	}
	return filepath.Join(r.dir, fmt.Sprintf("data%d", i+1))
}

// boot spawns the server for set-up boot i and returns it with the time
// from spawn to ready.
func (r *runner) boot(d0 string, i int) (*server, float64, error) {
	dataDir := r.bootDir(d0, i)
	if dataDir != "" {
		if err := copyDir(d0, dataDir); err != nil {
			return nil, 0, err
		}
	}
	s, took, err := startServer(r.vqiserve(), r.serverArgs(dataDir, true), filepath.Join(r.dir, fmt.Sprintf("vqiserve-%d.log", i)))
	return s, took.Seconds(), err
}

// timeBoots records the boot times of boots i0..i0+n-1, stopping each
// server once it is ready.
func (r *runner) timeBoots(d0 string, i0, n int) error {
	for i := i0; i < i0+n; i++ {
		s, took, err := r.boot(d0, i)
		if err != nil {
			return err
		}
		r.res.SetupBoots = append(r.res.SetupBoots, took)
		if err := s.stop(); err != nil {
			return err
		}
		if d0 != "" {
			os.RemoveAll(r.bootDir(d0, i))
		}
	}
	return nil
}

// watchPeakRSS keeps the server's VmHWM, read every 200 ms and once more
// when the returned stop is called, so a server that dies mid-run still
// reports the peak it reached.
func (r *runner) watchPeakRSS(srv *server) (stop func()) {
	note := func() {
		if mib, err := srv.peakRSSMiB(); err == nil {
			r.res.PeakRSSMiB = max(r.res.PeakRSSMiB, mib)
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			note()
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
			note()
		})
	}
}

// scrape reads /metrics; a server that died mid-run is recorded as a
// crash and contributes no counters. A failed scrape waits a moment for the
// process to be reaped, so a crash that has just happened is not taken for
// a client fault, which would make the run invalid.
func (r *runner) scrape(ctx context.Context, srv *server) flat {
	f, err := srv.scrape(ctx)
	if err != nil {
		if dead, why := srv.exited(2 * time.Second); dead {
			r.res.crashed(why)
		} else {
			r.res.invalid("scraping /metrics: %v", err)
		}
		return flat{}
	}
	return f
}

// capacity finds the highest offered rate of the read mix at which every
// interactive p99 stays within latencyLimit and the backlog does not grow.
// The fixed phase is the first trial, at the fixed rate R; open-loop steps
// then bisect geometrically between the highest rate that held and the
// lowest that did not, starting from the bracket [R, capacityReach*R]
// ([R/capacityReach, R] when the fixed phase itself failed). A fixed
// bracket keeps the trial rates independent of any noisy measurement.
// Steps replay the continuation of the nominal schedule, time-compressed
// to their rate; in maintain the writer keeps its fixed period
// throughout. The capacity is 0 when no trial held.
func (r *runner) capacity(ctx context.Context, base string, conns [2]int, nw int, fixed capStep) ([]capStep, []sent) {
	const (
		stepLen       = 2 * time.Second
		bisections    = 4
		capacityReach = 10 // the fixed rates are about an eighth of capacity
	)
	reads := r.sched.Reads
	ri := r.sched.Fixed
	steps := []capStep{fixed}
	var all []sent
	lo, hi, floor := fixed.Rate, fixed.Rate*capacityReach, fixed.Rate
	if !fixed.Pass {
		lo, hi, floor = 0, fixed.Rate, fixed.Rate/capacityReach
	}
	cursor := time.Duration(0)
	if ri < len(reads) {
		cursor = reads[ri].Due
	}
	for i := 0; i < bisections; i++ {
		rate := math.Sqrt(max(lo, floor) * hi)
		span := time.Duration(float64(stepLen) * rate / r.sched.Rate)
		var items []timed
		for ri < len(reads) && reads[ri].Due < cursor+span {
			items = append(items, timed{req: &reads[ri], due: time.Duration(float64(reads[ri].Due-cursor) * r.sched.Rate / rate)})
			ri++
		}
		if ri >= len(reads) {
			break // the stream ran out: report the last confirmed rate
		}
		cursor += span
		for t := time.Duration(0); r.sched.WritePeriod > 0 && t < stepLen && nw < len(r.sched.Writes); t += r.sched.WritePeriod {
			items = append(items, timed{req: &r.sched.Writes[nw], due: t, lane: 1})
			nw++
		}
		sort.SliceStable(items, func(i, j int) bool { return items[i].due < items[j].due })
		start := time.Now()
		// Abort a step once half a second of arrivals is queued: it has
		// failed by then, and draining a longer backlog only wastes time.
		outs, aborted := runOpenLoop(ctx, base, items, conns, int(rate/2)+2*conns[0], 0)
		for j, it := range items {
			all = append(all, sent{req: it.req, out: outs[j], due: it.due, base: start, phase: "capacity"})
		}
		st := judge(rate, items, outs, stepLen, conns[0], aborted)
		steps = append(steps, st)
		if st.Pass {
			lo = rate
		} else {
			hi = rate
		}
	}
	r.res.CapacityRPS = lo
	return steps, all
}

// judge decides one trial at an offered rate: it holds when nothing
// failed, every interactive p99 (overall, and per route with at least 100
// samples) is within latencyLimit, and at most 2% of the requests (at
// least two per read connection) were still unfinished when the trial's
// arrivals ended.
func judge(rate float64, items []timed, outs []outcome, span time.Duration, readConns int, aborted bool) capStep {
	st := capStep{Rate: rate, Aborted: aborted}
	var lat []float64
	byKind := map[kind][]float64{}
	for i, it := range items {
		o := outs[i]
		if o.Unsent {
			st.Unsent++
			continue
		}
		st.Sent++
		if !o.ok() {
			st.Failed++
		}
		if k := it.req.Kind; k == kindQuery || k == kindSuggest || k == kindSimilar {
			l := ms(o.Done - it.due)
			lat = append(lat, l)
			byKind[k] = append(byKind[k], l)
		}
		if o.Done > span && it.due < span {
			st.Backlog++
		}
	}
	st.P99 = percentile(lat, 99)
	st.Pass = !aborted && st.Failed == 0 && st.P99 <= ms(latencyLimit) && st.Backlog <= max(2*readConns, len(items)/50)
	for _, xs := range byKind {
		if len(xs) >= 100 && percentile(xs, 99) > ms(latencyLimit) {
			st.Pass = false
		}
	}
	return st
}

type capStep struct {
	Rate    float64 `json:"rate"`
	Sent    int     `json:"sent"`
	Unsent  int     `json:"unsent"`
	Failed  int     `json:"failed"`
	Backlog int     `json:"backlog"`
	P99     float64 `json:"p99_ms"`
	Aborted bool    `json:"aborted"`
	Pass    bool    `json:"pass"`
}

// recallProbes is how many closing similar lookups score recall.
const recallProbes = 200

// closingProbes builds the requests sent after the measured phases: in
// maintain, for every acknowledged batch, its first added compound and its
// removed compound as queries (the answer must reflect the batch); in
// formulate and maintain, by-name similar lookups over the final corpus
// for recall (explore scores recall on its own traffic).
func (r *runner) closingProbes(all []sent) []request {
	rng := rand.New(rand.NewSource(r.cfg.seed ^ 0x5eed))
	var out []request
	names := append([]string(nil), r.or.versions[0]...)
	for _, s := range all {
		if s.req.Kind != kindUpdate || !s.out.ok() {
			continue
		}
		b := s.req.Batch
		out = append(out, queryRequest(kindQuery, b.Added[0]))
		if g := r.or.graphs[b.Removed[0]]; g != nil {
			out = append(out, queryRequest(kindQuery, g))
		}
		names = applyBatch(names, b)
	}
	if r.cfg.workload != "explore" {
		for i := 0; i < recallProbes; i++ {
			out = append(out, similarRequest(simSpec{Graph: names[rng.Intn(len(names))], K: 10}))
		}
	}
	return out
}

// prepDataDir builds the maintain data directory: a seed snapshot, the
// prefix batches folded by vqimaintain -compact (which writes per-shard
// index sections), then the suffix batches left in the WAL.
func (r *runner) prepDataDir() (string, error) {
	d0 := filepath.Join(r.dir, "data0")
	st, rec, err := store.Open(context.Background(), d0, store.Options{})
	if err != nil {
		return "", err
	}
	if rec.Corpus != nil {
		st.Close()
		return "", fmt.Errorf("%s is not empty", d0)
	}
	if err := st.Seed(r.in.corpus); err != nil {
		st.Close()
		return "", err
	}
	if err := st.Close(); err != nil {
		return "", err
	}
	prefix, suffix, _ := prepHistory(r.in.corpus)
	if err := r.postBatches(d0, prefix, false, "prefix"); err != nil {
		return "", err
	}
	cmd := command(filepath.Join(r.cfg.bin, "vqimaintain"), "-compact", "-data-dir", d0, "-mmap", "-shards", fmt.Sprint(shards))
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("vqimaintain -compact: %v\n%s", err, out)
	}
	if err := r.postBatches(d0, suffix, true, "suffix"); err != nil {
		return "", err
	}
	for _, b := range append(prefix, suffix...) {
		r.or.addVersion(b)
	}
	r.or.versions = r.or.versions[len(r.or.versions)-1:]
	return d0, nil
}

// postBatches boots a server on dir and posts the batches one at a time.
func (r *runner) postBatches(dir string, batches []*batch, mmap bool, tag string) error {
	srv, _, err := startServer(r.vqiserve(), r.serverArgs(dir, mmap), filepath.Join(r.dir, "prep-"+tag+".log"))
	if err != nil {
		return err
	}
	var items []timed
	reqs := make([]request, len(batches))
	for i, b := range batches {
		reqs[i] = updateRequest(b)
		items = append(items, timed{req: &reqs[i]})
	}
	outs, _ := runOpenLoop(context.Background(), "http://"+srv.addr, items, [2]int{1, 0}, 0, 0)
	for i, o := range outs {
		if !o.ok() {
			srv.stop()
			return fmt.Errorf("%s batch %d: status %d %s %s", tag, i, o.Status, o.Err, o.Body)
		}
	}
	return srv.stop()
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() {
			if err := copyDir(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
				return err
			}
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err == nil {
			_, err = io.Copy(out, in)
			if cerr := out.Close(); err == nil {
				err = cerr
			}
		}
		in.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// snapshotBytes sums the snapshot files of a data directory.
func snapshotBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".vqisnap" {
			if fi, err := e.Info(); err == nil {
				n += fi.Size()
			}
		}
	}
	return n, nil
}

// checkAll runs the oracle over every answered request on nproc workers.
func (r *runner) checkAll(all []sent) error {
	o := r.or
	if r.cfg.workload == "maintain" {
		r.assignVersions(all)
	}
	needExact := false
	for _, s := range all {
		if s.req.Kind == kindSimilar {
			needExact = true
			break
		}
	}
	if needExact {
		c := graph.NewCorpus()
		for _, n := range o.versions[len(o.versions)-1] {
			c.MustAdd(o.graphs[n])
		}
		o.exact = gindex.BuildShardedANN(c, shards, 0, ann.Config{Center: true})
	}
	verdicts := make([]checked, len(all))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				verdicts[i] = r.checkOne(&all[i])
			}
		}()
	}
	for i := range all {
		next <- i
	}
	close(next)
	wg.Wait()
	r.res.tally(all, verdicts)
	return nil
}

type checked struct {
	attempted bool
	class     string // "" when correct
	detail    string
	recall    float64
	hasRecall bool
}

func (r *runner) checkOne(s *sent) checked {
	if s.out.Unsent {
		return checked{}
	}
	c := checked{attempted: true}
	switch {
	case s.out.Err != "":
		c.class, c.detail = "transport", s.out.Err
		return c
	case s.out.Status/100 != 2:
		c.class, c.detail = "status", fmt.Sprintf("%d %s", s.out.Status, truncate(s.out.Body, 200))
		return c
	}
	var v verdict
	switch s.req.Kind {
	case kindSpec:
		var got, want any
		if json.Unmarshal(s.out.Body, &got) != nil || json.Unmarshal(mustJSON(r.in.spec), &want) != nil || !jsonEqual(got, want) {
			v, c.detail = verdictWrong, "spec differs from the built spec"
		}
	case kindQuery:
		v, c.detail = r.or.checkQuery(s.req.Q, s.out.Body, s.vlo, s.vhi)
	case kindSuggest:
		v, c.detail = r.or.checkSuggest(s.req.Q, s.out.Body)
	case kindSimilar:
		v, c.detail, c.recall = r.or.checkSimilar(s.req.Sim, s.out.Body)
		c.hasRecall = v == verdictOK
	case kindUpdate:
		v, c.detail = r.or.checkUpdate(s.req.Batch, s.out.Body, s.vhi)
	}
	switch v {
	case verdictWrong:
		c.class = "wrong"
	case verdictTruncated:
		c.class = "truncated"
	case verdictUnparsable:
		c.class = "unparsable"
	}
	return c
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "..."
	}
	return string(b)
}

func jsonEqual(a, b any) bool {
	x, _ := json.Marshal(a)
	y, _ := json.Marshal(b)
	return string(x) == string(y)
}

// assignVersions numbers the corpus versions the maintain writer created
// (every acknowledged batch is one) and gives each request the range of
// versions that were live while it was in flight: at least the batches
// acknowledged before it was sent, at most those sent before it finished.
func (r *runner) assignVersions(all []sent) {
	type write struct{ sent, done time.Time }
	var writes []write
	for i := range all {
		s := &all[i]
		if s.req.Kind != kindUpdate || !s.out.ok() {
			continue
		}
		r.or.addVersion(s.req.Batch)
		s.vlo, s.vhi = len(r.or.versions)-1, len(r.or.versions)-1
		writes = append(writes, write{s.sentAt(), s.doneAt()})
	}
	for i := range all {
		s := &all[i]
		if s.req.Kind == kindUpdate || s.out.Unsent {
			continue
		}
		for _, w := range writes {
			if w.done.Before(s.sentAt()) {
				s.vlo++
			}
			if w.sent.Before(s.doneAt()) {
				s.vhi++
			}
		}
	}
}
