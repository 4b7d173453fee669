package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fault"
)

// Every timed repetition runs in a fresh child process of this binary, as
// every command invocation does: fault's kernel cache is process-wide and
// never evicted, so a warm process would hide kernel builds and understate
// memory. A child prints one JSON result on its standard output. The
// untimed work (the serve fixture, the naive-oracle spot check) runs in the
// parent.

// repResult is what one child repetition reports.
type repResult struct {
	// WorkS is the in-process time of the workload operation; SetupS,
	// CampaignS and TrainEvalS are its parts.
	WorkS      float64 `json:"work_s"`
	SetupS     float64 `json:"setup_s"`
	CampaignS  float64 `json:"campaign_s"`
	TrainEvalS float64 `json:"train_eval_s"`
	// Injections counts the injection runs simulated.
	Injections int64 `json:"injections"`
	// Campaigns holds each ground truth by scenario; Outputs holds the
	// other exact outputs (Table I R², learning curve) by name.
	Campaigns map[string]outcome `json:"campaigns,omitempty"`
	Outputs   map[string]string  `json:"outputs,omitempty"`
	// Layers are the per-layer metrics of a traced repetition, and Journal
	// its span journal.
	Layers  map[string]float64 `json:"layers,omitempty"`
	Journal string             `json:"journal,omitempty"`

	// predictRows counts the rows each model predicted in a traced
	// Table I, the base of ml.predict_us_per_row.
	predictRows map[string]int
}

func childMain(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("child: missing role")
	}
	role := args[0]
	fs := flag.NewFlagSet("child "+role, flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	traced := fs.Bool("traced", false, "compose the flow by hand under spans")
	dir := fs.String("dir", "", "scratch directory of the run")
	rep := fs.Int("rep", 0, "repetition index")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	var out any
	var err error
	switch role {
	case "rep":
		out, err = runRep(*workload, *seed, *traced, *dir, *rep)
	case "server":
		return runServer(*dir, *traced)
	default:
		return fmt.Errorf("child: unknown role %q", role)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

func runRep(workload string, seed int64, traced bool, dir string, rep int) (*repResult, error) {
	var rec *recorder
	if traced {
		rec = newRecorder("perfbench")
	}
	ctx, root := rec.tracer().Start(context.Background(), rootSpan)
	res := &repResult{Campaigns: map[string]outcome{}, Outputs: map[string]string{}}
	var hands []*handStudy
	var results []*fault.Result
	t0 := time.Now()
	// study sets up one study and runs its ground truth, on the public
	// path or composed by hand, accumulating setup and campaign time.
	study := func(public func() (*core.Study, error), hand func() (*handStudy, error)) (*fault.Result, error) {
		t := time.Now()
		var st *core.Study
		var h *handStudy
		var err error
		if traced {
			h, err = hand()
		} else {
			st, err = public()
		}
		if err != nil {
			return nil, err
		}
		res.SetupS += time.Since(t).Seconds()
		t = time.Now()
		var r *fault.Result
		if traced {
			r, err = h.groundTruth(ctx, rec)
			hands = append(hands, h)
		} else {
			r, err = st.RunGroundTruth()
		}
		if err != nil {
			return nil, err
		}
		res.CampaignS += time.Since(t).Seconds()
		res.Injections += int64(r.TotalRuns)
		results = append(results, r)
		return r, nil
	}

	switch workload {
	case "mac-paper":
		cfg := macConfig(seed, 170)
		cfg.Checkpoint = filepath.Join(dir, fmt.Sprintf("mac-paper-%d.ffr", rep))
		r, err := study(func() (*core.Study, error) { return core.NewStudy(cfg) },
			func() (*handStudy, error) { return composeMAC(ctx, rec, cfg) })
		if err != nil {
			return nil, err
		}
		res.Campaigns["mac10ge/loopback"] = newOutcome(r)
	case "corpus":
		for i, id := range corpusScenarios {
			sc, err := corpus.Find(id)
			if err != nil {
				return nil, err
			}
			cs := corpusCampaignSeed(seed, i)
			r, err := study(func() (*core.Study, error) {
				return core.NewCorpusStudy(sc, core.CorpusStudyConfig{Scale: corpus.ScaleDefault, Seed: 1, CampaignSeed: cs})
			}, func() (*handStudy, error) { return composeCorpus(ctx, rec, id, cs) })
			if err != nil {
				return nil, err
			}
			res.Campaigns[id] = newOutcome(r)
		}
	case "estimate":
		cfg := macConfig(seed, estimateInjections)
		var st *core.Study
		r, err := study(func() (s *core.Study, err error) { st, err = core.NewStudy(cfg); return st, err },
			func() (*handStudy, error) { return composeMAC(ctx, rec, cfg) })
		if err != nil {
			return nil, err
		}
		res.Campaigns["mac10ge/loopback"] = newOutcome(r)
		t := time.Now()
		if err := res.estimate(ctx, rec, st, hands, r, mlSeed(seed)); err != nil {
			return nil, err
		}
		res.TrainEvalS = time.Since(t).Seconds()
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	root.End()
	res.WorkS = time.Since(t0).Seconds()
	if traced {
		if err := res.traceLayers(rec, hands, results); err != nil {
			return nil, err
		}
		if workload == "mac-paper" {
			n, loadS, saveS, err := checkpointMeasure(filepath.Join(dir, fmt.Sprintf("mac-paper-%d.ffr", rep)))
			if err != nil {
				return nil, fmt.Errorf("checkpoint: %w", err)
			}
			res.Layers["fault.checkpoint_bytes"] = float64(n)
			res.Layers["fault.checkpoint_load_s"] = loadS
			res.Layers["fault.checkpoint_save_s"] = saveS
		}
	}
	return res, nil
}

// estimate runs Table I over the paper's models and the k-NN learning
// curve, on the public path (st) or by hand (traced), and records the
// exact outputs.
func (res *repResult) estimate(ctx context.Context, rec *recorder, st *core.Study, hands []*handStudy, r *fault.Result, seed int64) error {
	var r2 map[string]float64
	var curve []float64
	if st != nil {
		rows, err := st.Table1(core.PaperModels(), core.PaperCVSplits, core.PaperTrainFrac, seed)
		if err != nil {
			return err
		}
		r2 = make(map[string]float64)
		for i, m := range paperModels() {
			r2[m.tag] = rows[i].R2
		}
		knn := paperModels()[1]
		pts, err := st.LearningCurve(knn.spec, core.PaperLearningFracs(), core.PaperCVSplits, seed)
		if err != nil {
			return err
		}
		for _, p := range pts {
			curve = append(curve, p.TrainFrac, p.TrainScore, p.TestScore)
		}
	} else {
		X, y := hands[0].fm.Rows, r.FDR
		scores, rows, err := handTable1(ctx, rec, X, y, seed)
		if err != nil {
			return err
		}
		res.predictRows = rows
		r2 = make(map[string]float64)
		for tag, s := range scores {
			r2[tag] = s.R2
		}
		knn := paperModels()[1]
		if curve, err = handCurve(ctx, rec, knn.spec, knn.tag, X, y, seed); err != nil {
			return err
		}
	}
	for tag, v := range r2 {
		res.Outputs["r2_"+tag] = exact(v)
	}
	res.Outputs["curve_knn"] = floatsFingerprint(curve)
	return nil
}

// traceLayers derives the per-layer metrics of a traced repetition from its
// span journal, its hand-composed studies and their campaign results.
func (res *repResult) traceLayers(rec *recorder, hands []*handStudy, results []*fault.Result) error {
	recs, err := rec.journal()
	if err != nil {
		return err
	}
	res.Journal = rec.buf.String()
	dur, self := spanTimes(recs)
	counts := make(map[string]int)
	for _, r := range recs {
		counts[r.Name]++
	}
	L := map[string]float64{"trace.self_coverage": coverage(dur, self)}
	for _, name := range []string{"circuit.build", "circuit.synth", "circuit.bench", "sim.compile",
		"sim.golden", "features.extractor", "features.extract", "fault.run"} {
		L[name+"_s"] = dur[name]
	}
	for name, d := range dur {
		switch {
		case strings.HasPrefix(name, "corpus.materialize."):
			id := strings.TrimPrefix(name, "corpus.materialize.")
			L["corpus.materialize_s."+strings.ReplaceAll(id, "/", ".")] = d
			L["corpus.materialize_s"] += d
		case strings.HasPrefix(name, "ml.fit."):
			L["ml.fit_s."+strings.TrimPrefix(name, "ml.fit.")] = d / float64(counts[name])
		case strings.HasPrefix(name, "ml.predict."):
			tag := strings.TrimPrefix(name, "ml.predict.")
			if rows := res.predictRows[tag]; rows > 0 {
				L["ml.predict_us_per_row."+tag] = d * 1e6 / float64(rows)
			}
		}
	}
	var weighted float64 // ns per op·lane·cycle, weighted by kernel ops
	for i, h := range hands {
		st := h.nl.Stats()
		L["circuit.cells"] += float64(st.Cells)
		L["circuit.ffs"] += float64(st.FlipFlops)
		L["sim.snapshot_bytes"] += float64(h.snaps.MemoryBytes())
		km, err := measureKernel(h)
		if err != nil {
			return fmt.Errorf("kernel %s: %w", h.id, err)
		}
		L["sim.build_kernel_s"] += km.buildS
		L["sim.program_ops"] += float64(km.stats.ProgramOps)
		L["sim.kernel_ops"] += float64(km.stats.KernelOps)
		L["sim.kernel_slots"] += float64(km.stats.Slots)
		weighted += km.nsPerUnit * float64(km.stats.KernelOps)
		L["fault.sim_cycles"] += float64(results[i].SimulatedCycles)
		L["fault.replay_cycles"] += float64(results[i].ReplayCycles)
	}
	if ops := L["sim.kernel_ops"]; ops > 0 {
		L["sim.kernel_ns_per_op_lane_cycle"] = weighted / ops
	}
	if c := L["fault.sim_cycles"]; c > 0 {
		L["fault.cycle_saving"] = L["fault.replay_cycles"] / c
		L["fault.ns_per_sim_cycle"] = L["fault.run_s"] * 1e9 / c
	}
	res.Layers = L
	return nil
}

// checkFFs is how many flip-flops per scenario the spot check re-measures.
const checkFFs = 16

// naiveSpotCheck re-measures a seeded sample of flip-flops per scenario on
// the naive full-replay path; it returns their failure counts by scenario.
func naiveSpotCheck(workload string, seed int64) (map[string]map[int]int, error) {
	var hs []*handStudy
	switch workload {
	case "mac-paper", "estimate":
		inj := 170
		if workload == "estimate" {
			inj = estimateInjections
		}
		h, err := composeMAC(context.Background(), nil, macConfig(seed, inj))
		if err != nil {
			return nil, err
		}
		hs = append(hs, h)
	case "corpus":
		for i, id := range corpusScenarios {
			h, err := composeCorpus(context.Background(), nil, id, corpusCampaignSeed(seed, i))
			if err != nil {
				return nil, err
			}
			hs = append(hs, h)
		}
	default:
		return nil, fmt.Errorf("no spot check for workload %q", workload)
	}
	out := make(map[string]map[int]int)
	rng := rand.New(rand.NewSource(seed))
	for _, h := range hs {
		ffs := rng.Perm(h.p.NumFFs())[:min(checkFFs, h.p.NumFFs())]
		c, err := h.naiveCounts(ffs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", h.id, err)
		}
		out[h.id] = c
	}
	return out, nil
}
