// Command perfbench is the repository's benchmark of the estimation flow:
// a paper-scale fault-injection campaign, the corpus campaigns, Table I
// estimation and model serving, measured end to end and, in a separate
// traced run, layer by layer. Run it from the repository root through
// perfbench/run.sh:
//
//	bash perfbench/run.sh --workload mac-paper --seed 2019 --seconds 20 --trace 0
//
// It prints a summary of every metric (name, unit, sample count, median,
// quartiles) and, as its last line, one JSON object with the metrics that
// BENCHMARK.json declares for the mode (end-to-end with --trace 0,
// per-layer with --trace 1). Every workload checks its outputs; a failed
// check prints "correct": false and exits 1.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		if err := childMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:]))
}

// buildDir holds what the benchmark builds and its per-run scratch files,
// relative to the repository root it runs from.
const buildDir = ".bench_build"

// spec is the part of BENCHMARK.json the harness reads: the metric names
// and units each mode must report.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

//go:embed references.json
var referencesJSON []byte

// references pins the default-seed outputs of each workload.
type references map[string]struct {
	Campaigns map[string]string `json:"campaigns"`
	Outputs   map[string]string `json:"outputs"`
}

// bench is one benchmark run: its settings and what it has measured.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	self     string // this executable, spawned per repetition
	dir      string // scratch directory of the run

	attempted, failed int
	errs              []string // failed correctness checks
	// series are the end-to-end samples by metric (public repetitions).
	series map[string][]float64
	// layers are the per-layer samples by metric (traced repetitions).
	layers map[string][]float64
	// about describes the series that endToEnd does not list.
	about map[string]string
	// notes are extra summary lines.
	notes []string
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", defaultSeed, "workload seed; the default reproduces the paper and the pinned references")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := mainErr(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

var errIncorrect = errors.New("correctness check failed")

func mainErr(workload string, seed int64, seconds float64, trace int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	known := false
	for _, w := range sp.Workloads {
		known = known || w.Name == workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if dir, err = filepath.Abs(dir); err != nil {
		return err
	}
	b := &bench{workload: workload, seed: seed, seconds: seconds, trace: trace == 1,
		self: self, dir: dir, series: map[string][]float64{}, layers: map[string][]float64{},
		about: map[string]string{}}
	if workload == "serve" {
		err = b.runServe()
	} else {
		err = b.runCampaigns()
	}
	if err != nil {
		return err
	}
	want := sp.EndToEnd
	if b.trace {
		want = sp.PerLayer
	}
	return b.report(want)
}

// procUsage is what a child process cost: wall time from start to exit,
// CPU time and peak resident memory.
type procUsage struct{ wallS, cpuS, rssMB float64 }

func usageOf(cmd *exec.Cmd, wall time.Duration) procUsage {
	u := procUsage{wallS: wall.Seconds()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u.cpuS = time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime)).Seconds()
		u.rssMB = float64(ru.Maxrss) / 1024 // kilobytes on Linux
	}
	return u
}

// spawn runs one child of this executable and decodes its JSON result.
func (b *bench) spawn(out any, args ...string) (procUsage, error) {
	cmd := exec.Command(b.self, append([]string{"child"}, args...)...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	t := time.Now()
	err := cmd.Run()
	u := usageOf(cmd, time.Since(t))
	if err != nil {
		return u, fmt.Errorf("child %s: %w", strings.Join(args, " "), err)
	}
	return u, json.Unmarshal(stdout.Bytes(), out)
}

func (b *bench) fail(format string, a ...any) {
	b.errs = append(b.errs, fmt.Sprintf(format, a...))
}

// add records one end-to-end sample.
func (b *bench) add(name string, v float64) { b.series[name] = append(b.series[name], v) }

// minReps is the fewest repetitions a run makes, however short --seconds.
const minReps = 3

// runCampaigns measures mac-paper, corpus and estimate: repetitions in
// fresh processes until --seconds have passed and at least minReps are
// done (alternating public and traced repetitions with --trace 1), then
// the correctness checks. The campaigns are deterministic, so a failed
// repetition is a correctness failure and ends the run.
func (b *bench) runCampaigns() error {
	var first *repResult
	var tracedWork, publicWork []float64
	var journal string
	start := time.Now()
	for i := 0; i < minReps || time.Since(start).Seconds() < b.seconds; i++ {
		isTraced := b.trace && i%2 == 1
		args := []string{"rep", "-workload", b.workload, "-seed", fmt.Sprint(b.seed),
			"-dir", b.dir, "-rep", fmt.Sprint(i)}
		if isTraced {
			args = append(args, "-traced")
		}
		var r repResult
		b.attempted++
		u, err := b.spawn(&r, args...)
		if err != nil {
			b.failed++
			b.fail("repetition %d: %v", i, err)
			break
		}
		if first == nil {
			first = &r
		} else {
			b.sameOutputs(first, &r, fmt.Sprintf("repetition %d", i))
		}
		if isTraced {
			tracedWork = append(tracedWork, r.WorkS)
			journal = r.Journal
			for k, v := range r.Layers {
				b.layers[k] = append(b.layers[k], v)
			}
			continue
		}
		publicWork = append(publicWork, r.WorkS)
		b.add("wall_s", u.wallS)
		b.add("setup_s", r.SetupS)
		b.add("injections_per_s", float64(r.Injections)/r.CampaignS)
		b.add("peak_rss_mb", u.rssMB)
		b.add("cpu_s", u.cpuS)
		if b.workload == "estimate" {
			b.add("train_eval_s", r.TrainEvalS)
			for _, tag := range []string{"lls", "knn", "svr"} {
				v, _ := strconv.ParseFloat(r.Outputs["r2_"+tag], 64)
				b.add("r2_"+tag, v)
			}
		}
	}
	if first == nil {
		return nil
	}
	b.checkReferences(first)
	b.spotCheck(first)
	if b.trace && len(tracedWork) > 0 && len(publicWork) > 0 {
		b.layers["trace.overhead_s"] = []float64{median(tracedWork) - median(publicWork)}
		path := filepath.Join(buildDir, "perfbench-"+b.workload+".trace.jsonl")
		if err := os.WriteFile(path, []byte(journal), 0o644); err != nil {
			return err
		}
		b.notes = append(b.notes, "span journal of the last traced repetition: "+path)
	}
	return nil
}

// sameOutputs requires bit-identical outputs of two repetitions; with
// --trace 1 one of them composed the flow by hand.
func (b *bench) sameOutputs(want, got *repResult, what string) {
	if len(got.Campaigns) != len(want.Campaigns) || len(got.Outputs) != len(want.Outputs) {
		b.fail("%s: output set differs", what)
	}
	for id, o := range want.Campaigns {
		if g := got.Campaigns[id]; g.Fingerprint != o.Fingerprint {
			b.fail("%s: %s failure counts %s, first repetition %s", what, id, g.Fingerprint, o.Fingerprint)
		}
	}
	for k, v := range want.Outputs {
		if got.Outputs[k] != v {
			b.fail("%s: %s = %s, first repetition %s", what, k, got.Outputs[k], v)
		}
	}
}

// checkReferences compares default-seed outputs with the pinned ones.
func (b *bench) checkReferences(r *repResult) {
	if b.seed != defaultSeed {
		b.notes = append(b.notes, fmt.Sprintf("seed %d is not the default %d: no pinned references; "+
			"correctness rests on repetitions agreeing, the naive-oracle spot check and, traced, hand = public",
			b.seed, defaultSeed))
		return
	}
	var refs references
	if err := json.Unmarshal(referencesJSON, &refs); err != nil {
		b.fail("references.json: %v", err)
		return
	}
	ref, ok := refs[b.workload]
	if !ok {
		b.fail("no pinned references for %s", b.workload)
		return
	}
	for id, fp := range ref.Campaigns {
		if got := r.Campaigns[id].Fingerprint; got != fp {
			b.fail("%s: failure counts %s, pinned %s", id, got, fp)
		}
	}
	for k, v := range ref.Outputs {
		if r.Outputs[k] != v {
			b.fail("%s = %s, pinned %s", k, r.Outputs[k], v)
		}
	}
	b.notes = append(b.notes, fmt.Sprintf("outputs match the %d pinned references",
		len(ref.Campaigns)+len(ref.Outputs)))
}

// spotCheck re-measures a seeded sample of flip-flops per scenario on the
// naive full-replay path and requires the campaign's exact counts.
func (b *bench) spotCheck(r *repResult) {
	b.attempted++
	counts, err := naiveSpotCheck(b.workload, b.seed)
	if err != nil {
		b.failed++
		b.fail("naive-oracle spot check: %v", err)
		return
	}
	n := 0
	for id, counts := range counts {
		for ff, want := range counts {
			if got := r.Campaigns[id].Failures[ff]; got != want {
				b.fail("%s FF %d: campaign counts %d failures, naive oracle %d", id, ff, got, want)
			}
			n++
		}
	}
	b.notes = append(b.notes, fmt.Sprintf("naive-oracle spot check: %d flip-flops in %d scenarios", n, len(counts)))
}

// endToEnd lists the end-to-end metrics in summary order. BENCHMARK.json
// gates the ones every workload reports (wall_s, setup_s, peak_rss_mb,
// cpu_s); the others apply to some workloads only and are printed where
// they apply.
var endToEnd = []struct{ name, unit, about string }{
	{"wall_s", "s", "one cold run of the workload (serve: the closed-loop script)"},
	{"setup_s", "s", "netlist to ready-to-inject (serve: artifact load to ready)"},
	{"injections_per_s", "1/s", "ground-truth runs per second of campaign wall time"},
	{"peak_rss_mb", "MB", "peak resident memory of the process"},
	{"cpu_s", "s", "user+system CPU time of the process"},
	{"train_eval_s", "s", "Table I plus the k-NN learning curve"},
	{"r2_lls", "1", "Table I test R2, LLS (exact)"},
	{"r2_knn", "1", "Table I test R2, k-NN (exact)"},
	{"r2_svr", "1", "Table I test R2, SVR (exact)"},
	{"serve_max_rps", "1/s", "highest fixed rate meeting the p99 limit without a growing backlog"},
}

// report prints the summary and, last, the JSON result line with the
// metrics BENCHMARK.json declares for the mode.
func (b *bench) report(want []specMetric) error {
	fmt.Printf("perfbench %s  seed=%d  seconds=%g  trace=%v\n", b.workload, b.seed, b.seconds, b.trace)
	fmt.Printf("%-40s %-6s %3s %14s %14s %14s %8s  %s\n", "metric", "unit", "n", "median", "q1", "q3", "spread", "about")
	row := func(name, unit string, xs []float64, about string) {
		q1, med, q3 := quartiles(xs)
		fmt.Printf("%-40s %-6s %3d %14.6g %14.6g %14.6g %8.4f  %s\n", name, unit, len(xs), med, q1, q3, spread(xs), about)
	}
	listed := make(map[string]bool)
	for _, m := range endToEnd {
		listed[m.name] = true
		if xs, ok := b.series[m.name]; ok {
			row(m.name, m.unit, xs, m.about)
		}
	}
	var perRate []string // serve latencies per phase, model and rate
	for k := range b.series {
		if !listed[k] {
			perRate = append(perRate, k)
		}
	}
	sort.Strings(perRate)
	for _, k := range perRate {
		row(k, "ms", b.series[k], b.about[k])
	}
	row("fail_frac", "1", []float64{float64(b.failed) / float64(b.attempted)}, fmt.Sprintf("failed %d of %d attempted", b.failed, b.attempted))
	if b.trace {
		declared := make(map[string]bool, len(want))
		for _, m := range want {
			declared[m.Name] = true
		}
		for k := range b.layers {
			if !declared[k] {
				return fmt.Errorf("per-layer metric %s is not declared in BENCHMARK.json", k)
			}
		}
		for _, m := range want {
			if _, ok := b.layers[m.Name]; !ok {
				b.layers[m.Name] = []float64{0} // a layer this workload never enters
			}
			row(m.Name, m.Unit, b.layers[m.Name], "")
		}
	}
	metrics := make(map[string]any, len(want))
	for _, m := range want {
		xs := b.series[m.Name]
		if b.trace {
			xs = b.layers[m.Name]
		}
		v := median(xs)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			b.fail("metric %s was not measured", m.Name)
			continue
		}
		metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	for _, n := range b.notes {
		fmt.Println("note:", n)
	}
	for _, e := range b.errs {
		fmt.Println("INCORRECT:", e)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(b.errs) == 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if len(b.errs) > 0 {
		return errIncorrect
	}
	return nil
}
