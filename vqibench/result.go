package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's full record. The last stdout line carries only the
// contract keys; everything else is saved under the results directory.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	Env environment `json:"environment"`

	// Valid is false when the numbers cannot be trusted: the generator
	// fell behind its own schedule, or a run had too few samples for a
	// named percentile. Reasons lists why.
	Valid   bool     `json:"valid"`
	Reasons []string `json:"invalid_reasons,omitempty"`
	// InputsChangedFrom names an earlier result of the same workload and
	// seed whose input digests differ from this one's.
	InputsChangedFrom string `json:"inputs_changed_from,omitempty"`

	EndToEnd  map[string]metric     `json:"end_to_end"`
	PerLayer  map[string]metric     `json:"per_layer,omitempty"`
	Routes    map[string]routeStats `json:"routes"`
	Failures  map[string]int        `json:"failures"`
	Samples   map[string][]string   `json:"failure_samples,omitempty"`
	Generator generatorStats        `json:"generator"`

	SetupBoots    []float64          `json:"setup_boots_s"`
	BuildRuns     []float64          `json:"build_runs_s"`
	SetupSeconds  float64            `json:"-"`
	BuildSeconds  float64            `json:"-"`
	BuildStages   map[string]float64 `json:"build_stages_s"`
	PeakRSSMiB    float64            `json:"-"`
	SnapshotBytes int64              `json:"-"`
	CapacityRPS   float64            `json:"capacity_rps,omitempty"`
	CapacitySteps []capStep          `json:"capacity_steps,omitempty"`
	Recall        []float64          `json:"-"`

	BootMetrics  flat `json:"-"`
	PhaseMetrics flat `json:"-"`

	SelfTimes []selfRow `json:"self_times,omitempty"`
	// Timeline is the wall time of each stage of the run, in seconds.
	Timeline map[string]float64 `json:"timeline_s"`

	fixed []sent
	all   []sent
}

type routeStats struct {
	Count     int     `json:"count"`
	P50       float64 `json:"p50_ms"`
	P90       float64 `json:"p90_ms"`
	Tail      float64 `json:"tail_ms"`
	TailPct   float64 `json:"tail_percentile"`
	MeanWait  float64 `json:"mean_wait_ms"`
	OfferedPS float64 `json:"offered_per_s"`
	// Deciles are the 10th..90th percentiles, for reading the shape.
	Deciles []float64 `json:"deciles_ms"`
}

type generatorStats struct {
	Scheduled int     `json:"scheduled"`
	Sent      int     `json:"sent"`
	Completed int     `json:"completed"`
	LateP50   float64 `json:"late_p50_ms"`
	LateP99   float64 `json:"late_p99_ms"`
	LateMax   float64 `json:"late_max_ms"`
}

func newResult() *result {
	return &result{Valid: true, Timeline: map[string]float64{}, Failures: map[string]int{}, Samples: map[string][]string{}, Routes: map[string]routeStats{}}
}

func (r *result) invalid(format string, args ...any) {
	r.Valid = false
	r.Reasons = append(r.Reasons, fmt.Sprintf(format, args...))
}

// crashed records that the server process died during the run. Every
// request it could not answer already counts as failed; the crash itself
// makes the run incorrect and is listed with the server's panic line.
func (r *result) crashed(why string) {
	if r.Failures["server.crash"] > 0 {
		return
	}
	r.Failures["server.crash"] = 1
	r.Samples["server.crash"] = []string{why}
}

// tally folds the per-request verdicts into the failure counts and recall.
func (r *result) tally(all []sent, vs []checked) {
	for i, c := range vs {
		if !c.attempted {
			continue
		}
		r.Attempted++
		if c.hasRecall {
			r.Recall = append(r.Recall, c.recall)
		}
		if c.class == "" {
			continue
		}
		r.Failed++
		key := all[i].req.Kind.String() + "." + c.class
		r.Failures[key]++
		if len(r.Samples[key]) < 5 {
			r.Samples[key] = append(r.Samples[key], fmt.Sprintf("%s phase: %s", all[i].phase, c.detail))
		}
	}
	r.Correct = r.Failed == 0 && r.Failures["server.crash"] == 0
}

// generatorLateLimit: a run whose generator released its p99 request
// later than this after the request was due measured the load generator,
// not the server.
const generatorLateLimit = 10 * time.Millisecond

// companion is each workload's second request type.
var companion = map[string]kind{"formulate": kindSuggest, "explore": kindSimilar, "maintain": kindUpdate}

// tails are the fixed tail percentiles of each workload's query and
// companion latencies: per the percentile rule, the highest percentile that
// leaves at least ten samples beyond it in every run at the workload's
// fixed rates and the default --seconds. A run whose schedule holds fewer
// is invalid rather than reported at a different percentile.
var tails = map[string]map[kind]float64{
	"formulate": {kindQuery: 99, kindSuggest: 99},
	"explore":   {kindQuery: 99, kindSimilar: 99},
	"maintain":  {kindQuery: 95, kindUpdate: 90},
}

// endToEnd computes the end-to-end metrics from the measured window of the
// fixed-rate phase (warm-up excluded).
func (r *result) endToEnd(workload string, seconds int) {
	lat := map[kind][]float64{}
	wait := map[kind][]float64{}
	measured := map[kind]int{}
	var late []float64
	g := &r.Generator
	for _, s := range r.fixed {
		g.Scheduled++
		if s.due >= warmup {
			measured[s.req.Kind]++
		}
		if s.out.Unsent {
			continue
		}
		g.Sent++
		if s.out.Err == "" {
			g.Completed++
		}
		late = append(late, ms(s.out.Released-s.due))
		if s.due < warmup || s.out.Err != "" || s.out.Status/100 != 2 {
			// Refused and failed requests have no service latency; they
			// count in failed/attempted and fail any capacity step.
			continue
		}
		lat[s.req.Kind] = append(lat[s.req.Kind], ms(s.latency()))
		wait[s.req.Kind] = append(wait[s.req.Kind], ms(s.out.Sent-s.due))
	}
	g.LateP50, g.LateP99 = percentile(late, 50), percentile(late, 99)
	g.LateMax = percentile(late, 100)
	if g.LateP99 > ms(generatorLateLimit) {
		r.invalid("generator p99 lateness %.2f ms exceeds %v: the client, not the server, fell behind", g.LateP99, generatorLateLimit)
	}
	for k, xs := range lat {
		p, named := tails[workload][k]
		if !named {
			p = tailPercentile(len(xs))
		}
		// The rule is judged on the requests the schedule put in the
		// window: requests a failing server did not answer make the run
		// incorrect, not invalid.
		if n := measured[k]; named && beyond(n, p) < 10 {
			r.invalid("%s: %d scheduled requests leave fewer than 10 beyond p%g (highest supported: p%g)", k, n, p, tailPercentile(n))
		}
		r.Routes[k.String()] = routeStats{
			Count: len(xs), P50: percentile(xs, 50), P90: percentile(xs, 90), Tail: percentile(xs, p), TailPct: p,
			MeanWait: mean(wait[k]), OfferedPS: float64(len(xs)) / float64(seconds), Deciles: deciles(xs),
		}
	}
	q := r.Routes[kindQuery.String()]
	c := r.Routes[companion[workload].String()]
	recall := mean(r.Recall)
	r.EndToEnd = map[string]metric{
		"setup_s":          {r.SetupSeconds, "s"},
		"build_s":          {r.BuildSeconds, "s"},
		"query_p50_ms":     {q.P50, "ms"},
		"query_p90_ms":     {q.P90, "ms"},
		"companion_p50_ms": {c.P50, "ms"},
		"similar_recall":   {recall, "ratio"},
		"peak_rss_mb":      {r.PeakRSSMiB, "MiB"},
	}
}

// print writes the human-readable report followed by the contract line.
// An invalid run gets no contract line, and print returns false: its
// numbers measured the client, not the server, and must not be taken as a
// result.
func (r *result) print(w io.Writer, trace bool) bool {
	fmt.Fprintf(w, "workload %s  seed %d  commit %s  %s  GOMAXPROCS %d  nproc %d\n",
		r.Env.Workload, r.Env.Seed, short(r.Env.Commit), r.Env.GoVersion, r.Env.GOMAXPROCS, r.Env.NProc)
	fmt.Fprintf(w, "digests: corpus %s  spec %s  trace %s\n",
		short(r.Env.Digests["corpus"]), short(r.Env.Digests["spec"]), short(r.Env.Digests["trace"]))
	if r.InputsChangedFrom != "" {
		fmt.Fprintf(w, "FLAG: input digests differ from %s; do not compare these results\n", r.InputsChangedFrom)
	}
	fmt.Fprintf(w, "offered: %v  generator: %+v\n", r.Env.OfferedRates, r.Generator)
	fmt.Fprintf(w, "timeline (s): %v\n", r.Timeline)
	for _, name := range sortedKeys(r.Routes) {
		rs := r.Routes[name]
		fmt.Fprintf(w, "  %-8s n=%-6d p50 %8.3f ms  p90 %8.3f ms  p%g %8.3f ms  wait %6.3f ms\n", name, rs.Count, rs.P50, rs.P90, rs.TailPct, rs.Tail, rs.MeanWait)
	}
	for _, name := range sortedKeys(r.EndToEnd) {
		m := r.EndToEnd[name]
		fmt.Fprintf(w, "  %-22s %12.4f %s\n", name, m.Value, m.Unit)
	}
	if r.CapacitySteps != nil {
		fmt.Fprintf(w, "  %-22s %12.4f req/s (not in the result line)\n", "capacity_rps", r.CapacityRPS)
	}
	fmt.Fprintf(w, "  %-22s %12.6f ratio (%d failed of %d attempted)\n", "error_ratio", ratio(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted)
	for _, k := range sortedKeys(r.Failures) {
		fmt.Fprintf(w, "  FAILED %s: %d (e.g. %v)\n", k, r.Failures[k], r.Samples[k])
	}
	if trace {
		for _, name := range sortedKeys(r.PerLayer) {
			m := r.PerLayer[name]
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", name, m.Value, m.Unit)
		}
		printSelfTimes(w, r.SelfTimes)
	}
	if !r.Valid {
		fmt.Fprintf(w, "INVALID RUN, no result: %v\n", r.Reasons)
		return false
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
	b, _ := json.Marshal(line)
	fmt.Fprintln(w, string(b))
	return true
}

func short(s string) string {
	if len(s) > 12 {
		return s[:12]
	}
	if s == "" {
		return "-"
	}
	return s
}

// save writes the full record to <work>/results/<workload>-seed<N>-trace<T>.json,
// first flagging the result if an earlier record of the same workload and
// seed was made from different inputs.
func (r *result) save(work string) error {
	dir := filepath.Join(work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if r.Env.Trace {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.Env.Workload, r.Env.Seed, trace))
	if b, err := os.ReadFile(path); err == nil {
		var prev result
		if json.Unmarshal(b, &prev) == nil && digestDiff(prev.Env.Digests, r.Env.Digests) != "" {
			r.InputsChangedFrom = path + " (" + digestDiff(prev.Env.Digests, r.Env.Digests) + ")"
		}
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
