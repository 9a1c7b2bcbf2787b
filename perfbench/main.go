// Command perfbench is the repository's end-to-end benchmark. It boots
// the real msserve (and, for fleet_query, msrouter) binaries, drives
// one workload over /v1 from this single process, checks every answer
// against an in-process reference built with the library, and prints
// the metrics by name as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run records client spans, replays the same inputs through the
// layers' public functions afterwards, and prints per-layer metrics.
// perfbench/run.sh builds the binaries and calls this program; see
// perfbench/README.md for the workloads and metric definitions.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything a run records. The last stdout line carries
// Correct, the operation totals and Metrics; the whole record goes to
// .bench_build/results/.
type result struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Trace    bool               `json:"trace"`
	Env      map[string]any     `json:"env"`
	SetupS   []float64          `json:"setup_s_samples"`
	Classes  map[string]opClass `json:"operations"`
	// Lateness is how late the open-loop generator sent requests (ms).
	Lateness map[string]float64 `json:"generator_lateness_ms,omitempty"`
	// Named holds every figure the workload measures under its full
	// name (feed_p99_ms, push_lag_p50_ms, migrate_ms, ...), with
	// sample counts.
	Named    map[string]float64 `json:"named"`
	Liveness map[string]bool    `json:"liveness"`
	Problems []string           `json:"problems,omitempty"`
	Metrics  map[string]metric  `json:"metrics"`
	// Layers is the traced run's per-layer table and breakdown.
	Layers map[string]any `json:"layers,omitempty"`
	// Samples holds the raw primary and auxiliary latency samples of
	// the measured phase, so any summary of them can be recomputed.
	Samples map[string]rawSeries `json:"samples,omitempty"`
	// Steal is the stolen share of each sampler window of the phase.
	Steal rawSteal `json:"steal_windows"`
}

// rawSteal lists sampler windows by their start in seconds after the
// measured phase began, with the share of the machine's CPU time the
// hypervisor stole in each.
type rawSteal struct {
	AtS   []float64 `json:"at_s"`
	Share []float64 `json:"share"`
}

// rawSeries is one latency class as recorded: each sample in ms and
// its send time in seconds after the measured phase began.
type rawSeries struct {
	MS  []float64 `json:"ms"`
	AtS []float64 `json:"at_s"`
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *result) gate(name string, ok bool) {
	r.Liveness[name] = ok
	if !ok {
		r.problem("liveness gate %s failed", name)
	}
}

// run is one benchmark invocation's shared state.
type run struct {
	w       *world
	bin     string // directory holding msserve and msrouter
	dir     string // scratch directory of this run
	seed    int64
	seconds float64
	tr      *tracer
	acct    *accounting
	res     *result
	// Set by a traced workload: the request class the per-layer
	// breakdown explains, and the replay state.
	primary string
	rp      *replayer
}

// setups is how many times a run boots its servers; setup_s is the
// median, and the last boot serves the workload.
const setups = 5

// bootRepeated boots a fleet setups times, stopping all but the last.
func (r *run) bootRepeated(boot func(i int) (*fleet, error)) (*fleet, error) {
	var f *fleet
	for i := 0; i < setups; i++ {
		start := time.Now()
		var err error
		f, err = boot(i)
		if err != nil {
			if f != nil {
				f.stop()
			}
			return nil, err
		}
		r.res.SetupS = append(r.res.SetupS, time.Since(start).Seconds())
		if i < setups-1 {
			f.stop()
		}
	}
	return f, nil
}

func (r *run) msserve(name string, extra ...string) (*proc, error) {
	args := []string{"-eta", fmt.Sprint(eta), "-psi", fmt.Sprint(psi), "-admin-token", adminToken, "-drain", "2s"}
	return startProc(filepath.Join(r.bin, "msserve"), name, r.dir, "serving ", append(args, extra...)...)
}

func (r *run) venueFlag(venue string) string {
	return fmt.Sprintf("%s=%s,%s", venue, filepath.Join(r.dir, "space.json"), filepath.Join(r.dir, "model.json"))
}

var workloads = map[string]func(context.Context, *run) error{
	"ingest":      runIngest,
	"annotate":    runAnnotate,
	"fleet_query": runFleetQuery,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	workload := flag.String("workload", "", "workload: ingest, annotate or fleet_query")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 25, "measured seconds")
	trace := flag.Int("trace", 0, "1 records spans and prints per-layer metrics")
	root := flag.String("root", ".", "repository checkout")
	bin := flag.String("bin", "", "directory with the msserve and msrouter binaries")
	flag.Parse()
	// Rare collections keep the generator's own pauses out of the
	// latencies it measures.
	debug.SetGCPercent(400)
	fn := workloads[*workload]
	if fn == nil || *bin == "" || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	res, err := execute(*root, *bin, *workload, fn, *seed, *seconds, *trace == 1)
	if err != nil {
		log.Fatal(err)
	}
	attempted, failed := 0, 0
	for _, c := range res.Classes {
		attempted += c.Attempted
		failed += c.Failed
	}
	for _, p := range res.Problems {
		fmt.Println("problem:", p)
	}
	names := make([]string, 0, len(res.Named))
	for k := range res.Named {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("named %-32s %.6g\n", k, res.Named[k])
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(res.Problems) == 0 && failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   res.Metrics,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(line))
}

func execute(root, bin, workload string, fn func(context.Context, *run) error, seed int64, seconds float64, trace bool) (*result, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	out := filepath.Join(root, ".bench_build")
	dir, err := os.MkdirTemp(mkdir(out, "runs"), workload+"-")
	if err != nil {
		return nil, err
	}
	res := &result{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		Env: envStamp(root), Named: map[string]float64{}, Liveness: map[string]bool{},
		Metrics: map[string]metric{},
	}
	w, err := buildWorld()
	if err != nil {
		return nil, fmt.Errorf("building the venue: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "space.json"), w.spaceJSON, 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "model.json"), w.modelJSON, 0o644); err != nil {
		return nil, err
	}
	r := &run{w: w, bin: bin, dir: dir, seed: seed, seconds: seconds,
		tr: newTracer(trace), acct: newAccounting(), res: res}
	// The whole run must end well inside three minutes.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	if err := fn(ctx, r); err != nil {
		return nil, fmt.Errorf("%s: %w (server logs in %s)", workload, err, dir)
	}
	res.Classes = r.acct.snapshot()
	if len(res.SetupS) > 0 {
		res.Named["setup_s"] = median(res.SetupS)
		res.Metrics["setup_s"] = metric{median(res.SetupS), "s"}
	}
	attempted, failed := r.acct.totals()
	res.Named["failed_frac"] = float64(failed) / float64(max(attempted, 1))
	if trace {
		if r.rp == nil {
			return nil, fmt.Errorf("%s: traced run made no replay", workload)
		}
		traced := res.Metrics
		res.Layers = map[string]any{"traced_e2e": traced}
		res.Metrics = r.layerMetrics(r.primary, r.rp)
		r.tracingOverhead(filepath.Join(out, "results"), traced)
		if err := r.tr.write(filepath.Join(mkdir(out, "trace"), fmt.Sprintf("%s-seed%d.json", workload, seed))); err != nil {
			return nil, err
		}
	}
	stamp := time.Now().UTC().Format("20060102T150405.000")
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%s.json", workload, seed, btoi(trace), stamp)
	if err := os.WriteFile(filepath.Join(mkdir(out, "results"), name), b, 0o644); err != nil {
		return nil, err
	}
	if len(res.Problems) == 0 {
		os.RemoveAll(dir)
	}
	return res, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func mkdir(parent, name string) string {
	p := filepath.Join(parent, name)
	if err := os.MkdirAll(p, 0o755); err != nil {
		log.Fatal(err)
	}
	return p
}

// envStamp records what the numbers were measured on.
func envStamp(root string) map[string]any {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"cpu_model":  "unknown",
		"commit":     "unknown (not a git checkout)",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				env["cpu_model"] = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(out))
	}
	if d, err := sourceDigest(root); err == nil {
		env["source_sha256"] = d
	}
	return env
}

// sourceDigest hashes the Go sources and module files of the checkout,
// which identifies the code measured when there is no git history.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			fmt.Fprintf(h, "%s %d\n", rel, len(b))
			h.Write(b)
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil)), err
}

// latencyNamed stores p50/p99 and the sample count of a latency class
// under prefix in res.Named.
func (r *run) latencyNamed(prefix string, ms []float64) {
	r.res.Named[prefix+"_p50_ms"] = median(ms)
	r.res.Named[prefix+"_p99_ms"] = percentile(ms, 0.99)
	r.res.Named[prefix+"_samples"] = float64(len(ms))
}

// latencies stores a class's due-time and service-time percentiles
// under prefix; the due-time form is the open-loop latency, which
// counts waiting behind earlier requests.
func (r *run) latencies(prefix string, l latencies) {
	r.latencyNamed(prefix, l.due)
	r.latencyNamed(prefix+"_service", l.service.ms)
}

// setE2E sets the end-to-end metrics every workload reports: its
// primary and auxiliary latency classes over the measured phase that
// began at start and lasted d, server CPU per operation, records per
// second and peak RSS.
func (r *run) setE2E(start time.Time, d time.Duration, mt *meter, primary, aux series, cpuMsPerOp, recordsPerS, rssMB float64) {
	r.res.Env["phase_s"] = d.Seconds()
	r.res.Samples = map[string]rawSeries{"primary": primary.raw(start), "aux": aux.raw(start)}
	w := mt.windows()
	r.res.Steal = w.raw(start)
	r.res.Env["cpu_steal_share"] = mt.stolen(start, start.Add(d))
	m := r.res.Metrics
	m["p50_ms"] = metric{primary.steady(0.5, w), "ms"}
	m["p90_ms"] = metric{primary.steady(0.9, w), "ms"}
	m["aux_p50_ms"] = metric{aux.steady(0.5, w), "ms"}
	m["server_cpu_ms_per_op"] = metric{cpuMsPerOp, "ms"}
	m["records_per_s"] = metric{recordsPerS, "1/s"}
	m["peak_rss_mb"] = metric{rssMB, "MiB"}
	r.res.Named["peak_rss_mb"] = rssMB
	if n := len(primary.ms); n < 1000 {
		r.res.problem("primary latency has %d samples, fewer than the 1000 its p99 needs", n)
	}
	for k, v := range m {
		if math.IsNaN(v.Value) || v.Value <= 0 {
			r.res.problem("metric %s is %v", k, v.Value)
		}
	}
}

// lateness summarises how late an open-loop generator ran.
func (r *run) lateness(name string, s *schedule) {
	if len(s.lateness) == 0 {
		return
	}
	if r.res.Lateness == nil {
		r.res.Lateness = map[string]float64{}
	}
	r.res.Lateness[name+"_p50"] = median(s.lateness)
	r.res.Lateness[name+"_p99"] = percentile(s.lateness, 0.99)
	r.res.Lateness[name+"_max"] = percentile(s.lateness, 1)
}
