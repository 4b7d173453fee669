package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/ml/metrics"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// This file holds the two ways the benchmark drives the estimation flow:
// the public path (core.NewStudy / core.NewCorpusStudy, RunGroundTruth,
// Table1, LearningCurve) that untraced runs time, and the same flow
// composed by hand from the layer packages, one span per layer call, that
// traced runs time. The two must produce bit-identical outputs, which the
// harness checks, so the composition cannot drift from the program.

// defaultSeed is the workload seed that reproduces the paper's setup and
// the pinned references.
const defaultSeed = 2019

// estimateInjections is the ground-truth budget of the estimate and serve
// workloads: small, so that training and serving dominate their runs.
const estimateInjections = 8

// corpusScenarios are the non-MAC corpus scenarios the corpus workload
// runs, at default scale and each scenario's registered budget.
var corpusScenarios = []string{
	"alupipe/randomops", "alupipe/streaming",
	"rrarb/uniform", "rrarb/hotspot",
	"uartser/paced", "uartser/burst",
	"random/noise",
}

// corpusCampaignSeed maps the workload seed to one scenario's campaign
// seed; 0 keeps the scenario's registered default (the default seed).
func corpusCampaignSeed(seed int64, i int) int64 {
	if seed == defaultSeed {
		return 0
	}
	if s := seed*1000003 + int64(i+1); s != 0 {
		return s
	}
	return 1
}

// mlSeed maps the workload seed to the split seed of Table I and the
// learning curve (the repository's Table I benchmark uses 1).
func mlSeed(seed int64) int64 {
	if seed == defaultSeed {
		return 1
	}
	return seed
}

// macConfig is the paper's study configuration at the given campaign seed
// and budget.
func macConfig(seed int64, injections int) core.StudyConfig {
	cfg := core.DefaultStudyConfig()
	cfg.CampaignSeed = seed
	cfg.InjectionsPerFF = injections
	return cfg
}

// outcome is one campaign's checked output.
type outcome struct {
	Fingerprint string `json:"fingerprint"`
	Failures    []int  `json:"failures"`
}

func newOutcome(r *fault.Result) outcome {
	return outcome{Fingerprint: countsFingerprint(r), Failures: append([]int(nil), r.Failures...)}
}

// countsFingerprint hashes the per-FF failure and injection counts.
func countsFingerprint(r *fault.Result) string {
	h := fnv.New64a()
	var b [8]byte
	for _, xs := range [][]int{r.Failures, r.Injections} {
		binary.LittleEndian.PutUint64(b[:], uint64(len(xs)))
		h.Write(b[:])
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], uint64(x))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// floatsFingerprint hashes float64 values bit for bit.
func floatsFingerprint(xs []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// exact formats a float so that parsing it back gives the same bits.
func exact(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// handStudy is a study composed by hand from the layer packages: what
// core.NewStudy and core.NewCorpusStudy build, reachable without them.
type handStudy struct {
	id           string
	nl           *netlist.Netlist
	p            *sim.Program
	stim         *sim.Stimulus
	monitors     []int
	cls          fault.Classifier
	golden       *sim.Trace
	snaps        *sim.Snapshots
	fm           *features.Matrix
	runner       *fault.Runner
	activeCycles int
	injections   int
	campaignSeed int64
	model        fault.Model
}

// composeMAC replicates core.NewStudy, one span per layer call.
func composeMAC(ctx context.Context, rec *recorder, cfg core.StudyConfig) (*handStudy, error) {
	h := &handStudy{id: "mac10ge/loopback", injections: cfg.InjectionsPerFF,
		campaignSeed: cfg.CampaignSeed, model: cfg.Model}
	var bench *circuit.MACBench
	var act *sim.Activity
	var ex *features.Extractor
	steps := []struct {
		name string
		f    func() error
	}{
		{"circuit.build", func() (err error) { h.nl, err = circuit.NewMAC10GE(cfg.MAC); return }},
		{"circuit.synth", func() error { return circuit.Synthesize(h.nl) }},
		{"sim.compile", func() (err error) { h.p, err = sim.Compile(h.nl); return }},
		{"circuit.bench", func() (err error) {
			cfg.Bench.FIFODepth = cfg.MAC.FIFODepth
			bench, err = circuit.BuildMACBench(h.p, cfg.Bench)
			if err == nil {
				h.stim, h.monitors, h.activeCycles = bench.Stim, bench.Monitors, bench.ActiveCycles
			}
			return
		}},
		{"sim.golden", func() error {
			h.snaps = sim.NewSnapshots(h.p, h.stim, cfg.SnapshotEvery)
			h.golden, act = sim.Run(sim.NewEngine(h.p), h.stim, sim.RunConfig{
				Monitors: h.monitors, CollectActivity: true, Snapshots: h.snaps,
			})
			return nil
		}},
		{"features.extractor", func() (err error) { ex, err = features.NewExtractor(h.nl); return }},
		{"features.extract", func() (err error) { h.fm, err = ex.Extract(act); return }},
		{"fault.runner", func() (err error) {
			h.cls = fault.NewMACClassifier(bench, cfg.CheckStats)
			h.runner, err = fault.NewRunner(h.p, h.stim, h.monitors, h.cls, fault.RunnerConfig{
				Model:           cfg.Model,
				ChunkJobs:       cfg.ChunkJobs,
				Workers:         cfg.Workers,
				Golden:          h.golden,
				Snapshots:       h.snaps,
				CheckpointPath:  cfg.Checkpoint,
				CheckpointEvery: cfg.CheckpointEvery,
			})
			return
		}},
	}
	for _, s := range steps {
		if err := rec.step(ctx, s.name, s.f); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return h, nil
}

// composeCorpus replicates corpus.Scenario.Materialize and
// core.NewCorpusStudy at default scale, one span per layer call, all under
// one corpus.materialize span per scenario.
func composeCorpus(ctx context.Context, rec *recorder, id string, campaignSeed int64) (*handStudy, error) {
	sc, err := corpus.Find(id)
	if err != nil {
		return nil, err
	}
	const scale, seed = corpus.ScaleDefault, 1
	h := &handStudy{id: id, injections: sc.Entry.Defaults.InjectionsPerFF, campaignSeed: campaignSeed}
	if h.campaignSeed == 0 {
		h.campaignSeed = sc.Entry.Defaults.CampaignSeed
	}
	var bench *corpus.Bench
	var act *sim.Activity
	var ex *features.Extractor
	steps := []struct {
		name string
		f    func() error
	}{
		{"circuit.build", func() (err error) { h.nl, err = sc.Entry.Generate(scale, seed); return }},
		{"circuit.synth", func() error { return circuit.Synthesize(h.nl) }},
		{"sim.compile", func() (err error) { h.p, err = sim.Compile(h.nl); return }},
		{"circuit.bench", func() (err error) {
			if bench, err = sc.Workload.Build(h.p, scale, seed); err == nil {
				h.stim, h.monitors, h.activeCycles, h.cls = bench.Stim, bench.Monitors, bench.ActiveCycles, bench.Classifier
			}
			return
		}},
		{"sim.golden", func() error {
			h.snaps = sim.NewSnapshots(h.p, h.stim, 0)
			h.golden, act = sim.Run(sim.NewEngine(h.p), h.stim, sim.RunConfig{
				Monitors: h.monitors, CollectActivity: true, Snapshots: h.snaps,
			})
			return nil
		}},
		{"features.extractor", func() (err error) { ex, err = features.NewExtractor(h.nl); return }},
		{"features.extract", func() (err error) { h.fm, err = ex.Extract(act); return }},
	}
	mctx, sp := rec.tracer().Start(ctx, "corpus.materialize."+id)
	for _, s := range steps {
		if err := rec.step(mctx, s.name, s.f); err != nil {
			sp.End()
			return nil, fmt.Errorf("%s %s: %w", id, s.name, err)
		}
	}
	sp.End()
	err = rec.step(ctx, "fault.runner", func() (err error) {
		h.runner, err = fault.NewRunner(h.p, h.stim, h.monitors, h.cls, fault.RunnerConfig{
			Golden: h.golden, Snapshots: h.snaps,
		})
		return
	})
	return h, err
}

// plan is the ground-truth injection plan, as RunGroundTruth draws it.
func (h *handStudy) plan() ([]fault.Job, error) {
	cfg := fault.CampaignConfig{Model: h.model, InjectionsPerFF: h.injections,
		ActiveCycles: h.activeCycles, Seed: h.campaignSeed}
	if err := cfg.Validate(h.stim.Cycles()); err != nil {
		return nil, err
	}
	return fault.NewModelPlan(h.model, h.p.NumFFs(), h.injections, h.activeCycles, h.campaignSeed), nil
}

// groundTruth replicates Study.RunGroundTruth.
func (h *handStudy) groundTruth(ctx context.Context, rec *recorder) (res *fault.Result, err error) {
	err = rec.step(ctx, "fault.run", func() error {
		jobs, err := h.plan()
		if err != nil {
			return err
		}
		res, err = h.runner.RunContext(ctx, jobs)
		return err
	})
	return res, err
}

// naiveCounts re-measures the ground truth of a few flip-flops on the
// naive full-replay interpreter path, an oracle independent of the kernel
// path the campaign runs on. A subset of the plan reproduces the full
// campaign's counts for those flip-flops exactly.
func (h *handStudy) naiveCounts(ffs []int) (map[int]int, error) {
	full, err := h.plan()
	if err != nil {
		return nil, err
	}
	want := make(map[int]bool, len(ffs))
	for _, ff := range ffs {
		want[ff] = true
	}
	var jobs []fault.Job
	for _, j := range full {
		if want[j.FF] {
			jobs = append(jobs, j)
		}
	}
	res, err := fault.RunJobs(h.p, h.stim, h.monitors, h.cls, jobs,
		fault.RunnerConfig{Model: h.model, Golden: h.golden, Naive: true})
	if err != nil {
		return nil, err
	}
	out := make(map[int]int, len(ffs))
	for _, ff := range ffs {
		out[ff] = res.Failures[ff]
	}
	return out, nil
}

// kernelMeasure is a campaign kernel built from outside the runner (the
// runner builds its own inside fault.run) and KernelEngine.Eval + Commit
// timed over it at the default batch width.
type kernelMeasure struct {
	buildS    float64
	stats     sim.KernelStats
	nsPerUnit float64 // ns per kernel op · lane · cycle, median of 7 samples
}

func measureKernel(h *handStudy) (kernelMeasure, error) {
	keep := make(map[int]bool)
	for _, m := range h.monitors {
		keep[m] = true
	}
	for _, lb := range h.stim.Loopbacks() {
		keep[lb.Out] = true
	}
	ports := make([]int, 0, len(keep))
	for p := range keep {
		ports = append(ports, p)
	}
	sort.Ints(ports)
	t := time.Now()
	k, err := sim.BuildKernel(h.p, sim.KernelConfig{KeepOutputs: ports})
	if err != nil {
		return kernelMeasure{}, err
	}
	m := kernelMeasure{buildS: time.Since(t).Seconds(), stats: k.Stats()}
	e := sim.NewKernelEngine(k, sim.DefaultKernelWords)
	const cycles = 64
	units := float64(m.stats.KernelOps) * float64(e.Lanes()) * cycles
	per := make([]float64, 7)
	for i := range per {
		t := time.Now()
		for c := 0; c < cycles; c++ {
			e.Eval()
			e.Commit()
		}
		per[i] = float64(time.Since(t).Nanoseconds()) / units
	}
	m.nsPerUnit = median(per)
	return m, nil
}

// table1Row is one Table I model: name, short tag and factory.
type table1Row struct {
	tag  string
	spec core.ModelSpec
}

func paperModels() []table1Row {
	tags := map[string]string{"Linear Least Squares": "lls", "k-NN": "knn", "SVR w/ RBF Kernel": "svr"}
	var out []table1Row
	for _, s := range core.PaperModels() {
		out = append(out, table1Row{tag: tags[s.Name], spec: s})
	}
	return out
}

// handTable1 replicates Study.Table1 (modelsel.CrossValidate per model)
// with a span around every Fit and PredictAll; it returns the mean test
// scores per model tag and the rows predicted per tag.
func handTable1(ctx context.Context, rec *recorder, X [][]float64, y []float64, seed int64) (map[string]metrics.Scores, map[string]int, error) {
	splits, err := ml.StratifiedShuffleSplits(y, core.PaperCVSplits, core.PaperTrainFrac, core.PaperStratifyBins, seed)
	if err != nil {
		return nil, nil, err
	}
	scores := make(map[string]metrics.Scores)
	rows := make(map[string]int)
	for _, m := range paperModels() {
		var acc metrics.Scores
		for _, sp := range splits {
			trX, trY := ml.Gather(X, y, sp.Train)
			teX, teY := ml.Gather(X, y, sp.Test)
			model := m.spec.Factory()
			if err := rec.step(ctx, "ml.fit."+m.tag, func() error { return model.Fit(trX, trY) }); err != nil {
				return nil, nil, err
			}
			var trP, teP []float64
			rec.step(ctx, "ml.predict."+m.tag, func() error {
				trP, teP = ml.PredictAll(model, trX), ml.PredictAll(model, teX)
				return nil
			})
			rows[m.tag] += len(trX) + len(teX)
			metrics.Evaluate(trY, trP) // Table1 scores the train side too; keep its cost
			acc = acc.Add(metrics.Evaluate(teY, teP))
		}
		scores[m.tag] = acc.Scale(1 / float64(len(splits)))
	}
	return scores, rows, nil
}

// handCurve replicates Study.LearningCurve (modelsel.LearningCurve over
// stratified k-fold splits) with spans around Fit and PredictAll; it
// returns the curve as (frac, train, test) triples.
func handCurve(ctx context.Context, rec *recorder, spec core.ModelSpec, tag string, X [][]float64, y []float64, seed int64) ([]float64, error) {
	splits, err := ml.StratifiedKFoldSplits(y, core.PaperCVSplits, core.PaperStratifyBins, seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var out []float64
	for _, frac := range core.PaperLearningFracs() {
		var trainSum, testSum float64
		for _, sp := range splits {
			k := min(max(int(frac*float64(len(sp.Train))+0.5), 2), len(sp.Train))
			sub := append([]int(nil), sp.Train...)
			rng.Shuffle(len(sub), func(i, j int) { sub[i], sub[j] = sub[j], sub[i] })
			sub = sub[:k]
			trX, trY := ml.Gather(X, y, sub)
			teX, teY := ml.Gather(X, y, sp.Test)
			model := spec.Factory()
			if err := rec.step(ctx, "ml.curve_fit."+tag, func() error { return model.Fit(trX, trY) }); err != nil {
				return nil, err
			}
			var trP, teP []float64
			rec.step(ctx, "ml.curve_predict."+tag, func() error {
				trP, teP = ml.PredictAll(model, trX), ml.PredictAll(model, teX)
				return nil
			})
			trainSum += metrics.R2(trY, trP)
			testSum += metrics.R2(teY, teP)
		}
		n := float64(len(splits))
		out = append(out, frac, trainSum/n, testSum/n)
	}
	return out, nil
}

// checkpointMeasure times fault.LoadCheckpoint and fault.SaveCheckpoint
// on a campaign's checkpoint file.
func checkpointMeasure(path string) (bytes int64, loadS, saveS float64, err error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, 0, 0, err
	}
	t := time.Now()
	ck, err := fault.LoadCheckpoint(path)
	if err != nil {
		return 0, 0, 0, err
	}
	loadS = time.Since(t).Seconds()
	t = time.Now()
	if err := fault.SaveCheckpoint(path+".copy", ck); err != nil {
		return 0, 0, 0, err
	}
	return fi.Size(), loadS, time.Since(t).Seconds(), nil
}
