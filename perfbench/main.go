// Command perfbench is the repository benchmark. It runs one of three
// workloads — paper-sampling, corun-matrix and labd-mixed (see NOTES.md) —
// and reports end-to-end metrics from untraced runs (--trace 0) or
// per-layer metrics from a traced run (--trace 1).
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload paper-sampling --seed 1 --seconds 20 --trace 0
//
// Every repetition runs in a fresh child process, so no state carries over
// from one repetition to the next. Progress goes to stderr; the last line
// of stdout is one JSON object with the keys correct, attempted, failed and
// metrics. Scratch files, result digests and span traces are kept under
// .bench_build/ in the working directory.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// procStart is when the child process's main package was initialized.
var procStart = time.Now()

// readyLine is what a child prints on stdout once its set-up is done.
const readyLine = "ready"

// buildDir holds everything a run leaves behind, relative to the working
// directory (the repository root).
const buildDir = ".bench_build"

// runDeadline bounds a whole run, set-up and every child included.
const runDeadline = 170 * time.Second

// An untraced run makes at least minReps repetitions and times at least
// minSetups set-ups; where the repetitions are fewer, set-up-only children
// make up the rest.
const (
	minReps   = 3
	minSetups = 31
)

// repReport is what one repetition hands back to the parent.
type repReport struct {
	SetupS float64 `json:"setup_s"`
	// WallS times the measured unit of work; Instr is the simulated
	// target instructions it executed and Ops the operations it attempted,
	// of which Failed failed.
	WallS  float64 `json:"wall_s"`
	Instr  float64 `json:"instr"`
	Ops    int     `json:"ops"`
	Failed int     `json:"failed"`
	// OpMs holds the latency of every operation.
	OpMs []float64 `json:"op_ms"`
	// Digest hashes the simulated results; it must repeat exactly for a
	// seed. Errors lists failed output checks.
	Digest string   `json:"digest"`
	Errors []string `json:"errors,omitempty"`
	// Layer, Samples and Spans are filled by traced repetitions: layer
	// metrics, latency samples the parent pools across repetitions, and the
	// recorded spans.
	Layer   map[string]float64   `json:"layer,omitempty"`
	Samples map[string][]float64 `json:"samples,omitempty"`
	Spans   []Span               `json:"spans,omitempty"`

	// rssMB and cpuS are the child's peak resident set and CPU time,
	// filled by the parent.
	rssMB, cpuS float64
}

func (r *repReport) errorf(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// runConfig parameterizes one repetition.
type runConfig struct {
	seed   uint64
	traced bool
	// tiny shrinks every workload to a smoke-test size.
	tiny bool
	// t0 is when set-up began; dir is a scratch directory the repetition
	// may use and must leave empty.
	t0  time.Time
	dir string
	// ready, when set, is called once set-up is done.
	ready func()
	// setupOnly ends the repetition right after set-up.
	setupOnly bool
}

// setupDone marks the end of a repetition's set-up and returns its
// duration as the repetition measures it; a child process also signals
// the parent, which times set-up from the spawn on.
func (rc runConfig) setupDone() float64 {
	if rc.ready != nil {
		rc.ready()
	}
	return time.Since(rc.t0).Seconds()
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	run  func(rc runConfig) (*repReport, error)
	// traceUntraced and traceTraced are the repetitions of a traced run:
	// untraced ones to compare against, then traced ones.
	traceUntraced, traceTraced int
	// pool derives per-layer metrics from samples pooled over the traced
	// repetitions; optional.
	pool func(reps []*repReport, layer map[string]float64) error
}

var workloads = []workloadDef{
	{name: "paper-sampling", run: runPaper, traceUntraced: 1, traceTraced: 1},
	{name: "corun-matrix", run: runCorun, traceUntraced: 3, traceTraced: 3},
	{name: "labd-mixed", run: runLabd, traceUntraced: 3, traceTraced: 6, pool: poolLabd},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() {
	name := flag.String("workload", "", "workload: paper-sampling, corun-matrix or labd-mixed")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measurement budget of an untraced run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	child := flag.Bool("child", false, "internal: run one repetition and report it as JSON")
	traced := flag.Bool("traced", false, "internal: trace the child repetition")
	setupOnly := flag.Bool("setup-only", false, "internal: end the child repetition after set-up")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *child {
		if err := runChild(w, runConfig{seed: *seed, traced: *traced, setupOnly: *setupOnly}); err != nil {
			fail(err)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	res, err := runParent(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runChild executes one repetition and prints its report.
func runChild(w workloadDef, rc runConfig) error {
	dir, err := os.MkdirTemp(filepath.Join(buildDir, "tmp"), w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rc.t0, rc.dir = procStart, dir
	rc.ready = func() { fmt.Println(readyLine) }
	rep, err := w.run(rc)
	if err != nil {
		return err
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runParent runs the repetitions of one benchmark run as child processes
// and aggregates them.
func runParent(w workloadDef, seed uint64, budget time.Duration, traceRun bool) (*result, error) {
	if err := os.MkdirAll(filepath.Join(buildDir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	spawn := func(traced bool) (*repReport, error) {
		rep, err := runRep(ctx, self, w.name, seed, "-traced="+strconv.FormatBool(traced))
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d traced=%v: setup %.3fs wall %.3fs cpu %.3fs rss %.0f MiB digest %.12s\n",
			w.name, seed, traced, rep.SetupS, rep.WallS, rep.cpuS, rep.rssMB, rep.Digest)
		return rep, nil
	}

	repeat := func(n int, traced bool) ([]*repReport, error) {
		var reps []*repReport
		for i := 0; i < n; i++ {
			rep, err := spawn(traced)
			if err != nil {
				return nil, err
			}
			reps = append(reps, rep)
		}
		return reps, nil
	}

	var untraced, traced []*repReport
	var setups []float64
	if traceRun {
		if untraced, err = repeat(w.traceUntraced, false); err != nil {
			return nil, err
		}
		if traced, err = repeat(w.traceTraced, true); err != nil {
			return nil, err
		}
	} else {
		for start := time.Now(); len(untraced) < minReps || time.Since(start) < budget; {
			rep, err := spawn(false)
			if err != nil {
				return nil, err
			}
			untraced = append(untraced, rep)
			setups = append(setups, rep.SetupS)
		}
		for len(setups) < minSetups {
			rep, err := runRep(ctx, self, w.name, seed, "-setup-only")
			if err != nil {
				return nil, err
			}
			setups = append(setups, rep.SetupS)
		}
	}

	all := append(append([]*repReport(nil), untraced...), traced...)
	res := &result{Correct: checkReps(w.name, seed, all), Metrics: map[string]metricValue{}}
	for _, r := range all {
		res.Attempted += r.Ops
		res.Failed += r.Failed
	}
	var values map[string]float64
	var ms []metric
	if traceRun {
		ms = perLayer
		values, err = layerValues(w, untraced, traced)
		if err != nil {
			return nil, err
		}
		var spans []Span
		for _, r := range traced {
			spans = append(spans, r.Spans...)
		}
		if err := writeSpans(w.name, seed, spans); err != nil {
			return nil, err
		}
	} else {
		ms = endToEnd
		values = endToEndValues(untraced)
		values["setup_s"] = median(setups)
	}
	for _, m := range ms {
		v := values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return res, nil
}

// checkReps reports whether every output check of the repetitions passed:
// their own checks, one digest across all of them, and the digest an
// earlier run of the seed recorded.
func checkReps(name string, seed uint64, reps []*repReport) bool {
	ok := true
	var digests []string
	for _, r := range reps {
		digests = append(digests, r.Digest)
		for _, e := range r.Errors {
			ok = false
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
		}
	}
	if i, same := sameDigest(digests); !same {
		ok = false
		fmt.Fprintf(os.Stderr, "perfbench: repetition %d digest %s differs from %s\n", i, digests[i], digests[0])
	}
	if err := checkStoredDigest(name, seed, digests[0]); err != nil {
		ok = false
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	return ok
}

// runRep runs one repetition in a fresh child process. Set-up is timed
// from the spawn to the child's ready line, so it includes process start
// and package initialization.
func runRep(ctx context.Context, self, name string, seed uint64, mode string) (*repReport, error) {
	cmd := exec.CommandContext(ctx, self, "-child", "-workload", name,
		"-seed", strconv.FormatUint(seed, 10), mode)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var setup time.Duration
	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		if sc.Text() == readyLine && setup == 0 {
			setup = time.Since(start)
		}
		last = sc.Text()
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("%s repetition: %w", name, err)
	}
	if scanErr != nil {
		return nil, fmt.Errorf("%s repetition output: %w", name, scanErr)
	}
	if setup == 0 {
		return nil, fmt.Errorf("%s repetition never reported ready", name)
	}
	var rep repReport
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return nil, fmt.Errorf("%s repetition report: %w", name, err)
	}
	rep.SetupS = setup.Seconds()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rep.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		rep.cpuS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	return &rep, nil
}

// endToEndValues aggregates untraced repetitions: medians over
// repetitions, latency medians over every operation of every repetition.
// The caller adds setup_s.
func endToEndValues(reps []*repReport) map[string]float64 {
	var mips, ops, rss, lat []float64
	var attempted, failed int
	for _, r := range reps {
		mips = append(mips, r.Instr/r.WallS/1e6)
		ops = append(ops, float64(r.Ops)/r.WallS)
		rss = append(rss, r.rssMB)
		lat = append(lat, r.OpMs...)
		attempted += r.Ops
		failed += r.Failed
	}
	return map[string]float64{
		"host_mips":   median(mips),
		"ops_per_s":   median(ops),
		"op_p50_ms":   median(lat),
		"peak_rss_mb": median(rss),
		"ok_frac":     float64(attempted-failed) / float64(attempted),
	}
}

// layerValues aggregates a traced run: each layer metric is the median
// over the traced repetitions, pooled samples go through the workload's
// pool hook, and trace_overhead_s compares traced and untraced walls.
func layerValues(w workloadDef, untraced, traced []*repReport) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, m := range perLayer {
		var xs []float64
		for _, r := range traced {
			xs = append(xs, r.Layer[m.Name])
		}
		out[m.Name] = median(xs)
	}
	if w.pool != nil {
		if err := w.pool(traced, out); err != nil {
			return nil, err
		}
	}
	wall := func(rs []*repReport) float64 {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, r.WallS)
		}
		return median(xs)
	}
	out["trace_overhead_s"] = wall(traced) - wall(untraced)
	return out, nil
}

// checkStoredDigest compares a run's digest with the one an earlier run of
// the same workload, seed and program build left in this checkout, and
// records it if it is the first. Keying by the build keeps a program change
// that alters results from reading as a mismatch.
func checkStoredDigest(name string, seed uint64, d string) error {
	dir := filepath.Join(buildDir, "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	build, err := buildID()
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d-%s", name, seed, build))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if string(prev) != d {
			return fmt.Errorf("digest %s differs from %s recorded by an earlier run of seed %d", d, prev, seed)
		}
		return nil
	case errors.Is(err, os.ErrNotExist):
		return os.WriteFile(path, []byte(d), 0o644)
	default:
		return err
	}
}

// buildID names the running program build by a hash of its executable.
func buildID() (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	b, err := os.ReadFile(self)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:6]), nil
}

// writeSpans writes a traced run's spans as JSON.
func writeSpans(name string, seed uint64, spans []Span) error {
	dir := filepath.Join(buildDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d.json", name, seed)), b, 0o644)
}
