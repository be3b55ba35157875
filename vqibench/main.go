// Command vqibench is the end-to-end serving benchmark: it generates a
// seeded chemical corpus, builds the served spec with the repository's own
// vqibuild, spawns the real vqiserve, drives it open-loop over loopback TCP
// with one of three workload mixes (formulate, explore, maintain), checks
// every answer against an independent oracle, and prints the end-to-end
// metrics (--trace 0) or the per-layer breakdown (--trace 1) as one JSON
// line. See README.md for the metric definitions and workload rationale.
//
//	vqibench --workload formulate --seed 1 --seconds 30 --trace 0
//	vqibench compare old.json new.json
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/datagen"
	"repro/internal/gio"
	"repro/internal/vqi"
)

// shards is pinned so the index layout does not follow the machine.
const shards = 4

// setupBoots is how many times a run times the server's boot; setup_s is
// the median. Half the boots come before the measured phases, the last of
// them serving the run, and the rest after, so that the median samples the
// host at both ends of the run: on a shared host its speed drifts within
// a run as well as between runs.
const setupBoots = 21

// buildRuns is how many times a run times vqibuild; build_s is the fastest.
// The builds do identical work, and a shared host only ever slows one down,
// so the fastest is the steadiest estimate of that work: in two ten-seed
// sets per workload on a 2-vCPU VM it spread 0.12–0.18 (IQR ÷ median)
// where the median of the same builds spread 0.16–0.24. The first build
// makes the served spec; the others rebuild it, to a separate file, after
// the measured phases, so that the builds sample the host at both ends of
// the run.
const buildRuns = 3

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	capacity bool   // also run the capacity search (--workload all)
	bin      string // directory holding vqiserve, vqibuild, vqimaintain
	work     string // scratch and results directory
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: formulate, explore or maintain")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; equal seeds give byte-identical request traces")
	flag.IntVar(&cfg.seconds, "seconds", 30, "length of the measured fixed-rate phase")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics and the traced replay")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/bin", "directory with the vqiserve, vqibuild and vqimaintain binaries")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "directory for generated inputs, data directories and results")
	flag.Parse()
	cfg.trace = trace == 1
	_, known := workloadRates[cfg.workload]
	if !(known || cfg.workload == "all") || trace < 0 || trace > 1 || cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "vqibench: need --workload formulate|explore|maintain|all, --trace 0|1 and --seconds >= 1")
		os.Exit(2)
	}
	if cfg.workload != "all" {
		// A single workload exits 0 whenever it produced a valid result;
		// the result line's "correct" carries the output checks.
		res, err := run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vqibench: %v\n", err)
			os.Exit(1)
		}
		if !res.print(os.Stdout, cfg.trace) {
			fmt.Fprintf(os.Stderr, "vqibench: invalid run: %v\n", res.Reasons)
			os.Exit(1)
		}
		return
	}
	// --workload all runs every workload in turn, with the capacity search
	// that single runs leave out, and exits non-zero when any run was
	// invalid or any output check failed.
	cfg.capacity = true
	status := 0
	for _, w := range workloadNames {
		cfg.workload = w
		res, err := run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vqibench: %s: %v\n", w, err)
			status = 1
			continue
		}
		if !res.print(os.Stdout, cfg.trace) || !res.Correct {
			status = 1
		}
	}
	os.Exit(status)
}

var workloadNames = []string{"formulate", "explore", "maintain"}

// environment is recorded with every result so two results can be told
// apart and input changes are never compared silently.
type environment struct {
	Commit       string             `json:"commit"`
	SourceDigest string             `json:"source_digest"`
	GoVersion    string             `json:"go_version"`
	GOMAXPROCS   int                `json:"gomaxprocs"`
	NProc        int                `json:"nproc"`
	Seed         int64              `json:"seed"`
	Workload     string             `json:"workload"`
	Seconds      int                `json:"seconds"`
	Trace        bool               `json:"trace"`
	ServeCmd     []string           `json:"vqiserve_cmd"`
	BuildCmd     []string           `json:"vqibuild_cmd"`
	OfferedRates map[string]float64 `json:"offered_rates"`
	Digests      map[string]string  `json:"digests"` // corpus, spec, trace
}

func fileDigest(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// sourceDigest hashes the Go sources and module file of the program under
// test, so a result identifies the code even where no VCS metadata exists.
func sourceDigest(root string) string {
	h := sha256.New()
	for _, dir := range []string{"cmd", "internal"} {
		filepath.WalkDir(filepath.Join(root, dir), func(p string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
				return nil
			}
			if b, err := os.ReadFile(p); err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
				h.Write(b)
			}
			return nil
		})
	}
	if b, err := os.ReadFile(filepath.Join(root, "go.mod")); err == nil {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// runner carries one run's state.
type runner struct {
	cfg   config
	dir   string // this run's scratch directory
	env   environment
	in    *inputs
	sched *schedule
	or    *oracle
	res   *result
	// buildStages holds the stage table of every timed vqibuild run.
	buildStages []map[string]float64
}

func run(cfg config) (*result, error) {
	for _, b := range []string{"vqiserve", "vqibuild", "vqimaintain"} {
		if _, err := os.Stat(filepath.Join(cfg.bin, b)); err != nil {
			return nil, fmt.Errorf("missing binary: %w", err)
		}
	}
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-seed%d-trace%v-%d", cfg.workload, cfg.seed, cfg.trace, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &runner{cfg: cfg, dir: dir, res: newResult()}
	r.env = environment{
		Commit:       gitCommit(),
		SourceDigest: sourceDigest("."),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NProc:        runtime.NumCPU(),
		Seed:         cfg.seed,
		Workload:     cfg.workload,
		Seconds:      cfg.seconds,
		Trace:        cfg.trace,
		OfferedRates: map[string]float64{},
		Digests:      map[string]string{},
	}
	t0 := time.Now()
	if err := r.prepare(); err != nil {
		return nil, err
	}
	r.lap("prepare", t0)
	if err := r.serve(); err != nil {
		return nil, err
	}
	r.res.Env = r.env
	r.res.endToEnd(cfg.workload, cfg.seconds)
	if cfg.trace {
		t0 = time.Now()
		if err := r.traced(); err != nil {
			return nil, err
		}
		r.lap("traced", t0)
	}
	r.res.Metrics = r.res.EndToEnd
	if cfg.trace {
		r.res.Metrics = r.res.PerLayer
	}
	if err := r.res.save(cfg.work); err != nil {
		return nil, err
	}
	return r.res, nil
}

func (r *runner) lap(stage string, since time.Time) {
	r.res.Timeline[stage] += time.Since(since).Seconds()
}

// prepare generates the corpus, builds the spec with vqibuild (timed as
// build_s), and generates the request schedule.
func (r *runner) prepare() error {
	corpus := datagen.ChemicalCorpus(corpusSeed, corpusSize, datagen.ChemicalOptions{})
	corpusPath := filepath.Join(r.dir, "corpus.lg")
	if err := gio.SaveCorpus(corpusPath, corpus); err != nil {
		return err
	}
	specPath := filepath.Join(r.dir, "spec.json")
	r.env.BuildCmd = r.buildCmd(specPath)
	if err := r.timeBuild(specPath); err != nil {
		return err
	}
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	spec, err := vqi.Decode(raw)
	if err != nil {
		return err
	}
	r.in, err = newInputs(corpus, spec)
	if err != nil {
		return err
	}
	for k, p := range map[string]string{"corpus": corpusPath, "spec": specPath} {
		if r.env.Digests[k], err = fileDigest(p); err != nil {
			return err
		}
	}
	stream := time.Duration(0)
	if r.cfg.capacity {
		stream = capacityStream
	}
	r.sched, err = r.in.generate(r.cfg.workload, r.cfg.seed, warmup+time.Duration(r.cfg.seconds)*time.Second, stream)
	if err != nil {
		return err
	}
	r.env.Digests["trace"] = r.sched.digest()
	r.env.OfferedRates["reads"] = r.sched.Rate
	if r.sched.WritePeriod > 0 {
		r.env.OfferedRates["writes"] = float64(time.Second) / float64(r.sched.WritePeriod)
	}
	r.or = newOracle(spec, r.in.canned, corpus)
	return nil
}

func (r *runner) buildCmd(out string) []string {
	return []string{filepath.Join(r.cfg.bin, "vqibuild"), "-data", filepath.Join(r.dir, "corpus.lg"), "-out", out,
		"-seed", fmt.Sprint(buildSeed), "-metrics"}
}

// timeBuild runs vqibuild once, writing the spec to out, and records its
// wall time and stage table.
func (r *runner) timeBuild(out string) error {
	cmd := r.buildCmd(out)
	start := time.Now()
	log, err := command(cmd[0], cmd[1:]...).CombinedOutput()
	if err != nil {
		return fmt.Errorf("vqibuild: %v\n%s", err, log)
	}
	r.res.BuildRuns = append(r.res.BuildRuns, time.Since(start).Seconds())
	r.buildStages = append(r.buildStages, parseStageTable(log))
	return nil
}

// parseStageTable reads the span lines of a -metrics stage table:
// "  catapult.select   1.077s +4.627s".
func parseStageTable(out []byte) map[string]float64 {
	stages := map[string]float64{}
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 || !strings.HasPrefix(f[2], "+") || !strings.HasSuffix(f[2], "s") {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(strings.TrimSuffix(f[2][1:], "s"), "%g", &v); err == nil {
			stages[f[0]] += v
		}
	}
	return stages
}

// compareMain prints two saved results side by side. Results whose input
// digests differ are flagged and the exit status is 3: a changed corpus,
// spec or trace makes their numbers incomparable.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: vqibench compare old.json new.json")
		return 2
	}
	var rs [2]result
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &rs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "vqibench: %s: %v\n", p, err)
			return 2
		}
	}
	status := 0
	if diff := digestDiff(rs[0].Env.Digests, rs[1].Env.Digests); diff != "" {
		fmt.Printf("INPUTS DIFFER (%s): results are not comparable\n", diff)
		status = 3
	}
	var buf bytes.Buffer
	for _, name := range sortedKeys(rs[1].Metrics) {
		a, b := rs[0].Metrics[name], rs[1].Metrics[name]
		fmt.Fprintf(&buf, "%-34s %14.4f %14.4f %+8.1f%%  %s\n", name, a.Value, b.Value, 100*ratio(b.Value-a.Value, a.Value), b.Unit)
	}
	io.Copy(os.Stdout, &buf)
	return status
}

func digestDiff(a, b map[string]string) string {
	var diffs []string
	for _, k := range sortedKeys(b) {
		if a[k] != b[k] {
			diffs = append(diffs, k)
		}
	}
	return strings.Join(diffs, ", ")
}
