package core

import (
	"context"
	"fmt"

	"repro/internal/fault"
	"repro/internal/ml"
	"repro/internal/ml/metrics"
	"repro/internal/plan"
)

// AdaptiveConfig assembles an active-learning campaign over a Study. The
// zero value is usable: committee strategy, paper k-NN estimate model, and
// the plan package's default budgets (half the pool at ~1/16-pool rounds).
type AdaptiveConfig struct {
	// Strategy is the acquisition strategy name (plan.StrategyNames);
	// "" means committee.
	Strategy string
	// Model is the estimate model retrained every round and returned in
	// the result; the zero value selects the paper's k-NN.
	Model ModelSpec
	// Seed drives the initial draw, bootstrap resamples and cluster
	// seeding.
	Seed int64
	// Pool restricts measurement to these flip-flops; nil means all.
	Pool []int
	// Per-round budgets and convergence criteria, as in plan.Config.
	InitFFs    int
	RoundFFs   int
	MaxRounds  int
	BudgetFFs  int
	DeltaTol   float64
	CIWidthTol float64
	Patience   int
	// Checkpoint enables loop checkpointing to this file (rounds in flight
	// checkpoint to "<Checkpoint>.round<N>" on the campaign runner); Resume
	// picks an interrupted loop back up bit-identically.
	Checkpoint string
	Resume     bool
	// OnRound, when non-nil, receives every completed round.
	OnRound func(plan.Round)
}

// AdaptiveStudy couples a Study with an active-learning campaign planner:
// instead of RunGroundTruth's exhaustive flat campaign, Run measures only
// the flip-flops the acquisition strategy asks for, round by round, until
// the circuit-level FFR estimate converges or the budget is spent.
type AdaptiveStudy struct {
	*Study
	// Planner is the configured loop; most callers just Run it.
	Planner *plan.Loop
	// StrategyName records the resolved acquisition strategy.
	StrategyName string
}

// CommitteeFactories returns the model zoo the committee strategy measures
// disagreement across: the paper's linear least squares and k-NN plus the
// Section V decision tree — three cheap, deterministic, structurally
// different learners.
func CommitteeFactories() []ml.Factory {
	tree := ExtendedModels()[0].Factory // "Decision Tree"
	return []ml.Factory{LinearModel, KNNModel, tree}
}

// NewAdaptiveStudy wires an active-learning planner onto a study. The study
// does not need ground truth: rounds run real partial campaigns on the
// study's incremental runner path (golden trace and snapshots reused).
func NewAdaptiveStudy(s *Study, cfg AdaptiveConfig) (*AdaptiveStudy, error) {
	spec := cfg.Model
	if spec.Name == "" {
		spec = PaperModels()[1] // the paper's best model, k-NN
	}
	name := cfg.Strategy
	if name == "" {
		name = plan.StrategyCommittee
	}
	strategy, err := plan.New(name, spec.Factory, CommitteeFactories())
	if err != nil {
		return nil, fmt.Errorf("core: adaptive study: %w", err)
	}
	loop, err := plan.NewLoop(plan.Config{
		Target:         &studyTarget{study: s},
		Strategy:       strategy,
		Model:          spec.Factory,
		ModelName:      spec.Name,
		Seed:           cfg.Seed,
		Pool:           cfg.Pool,
		InitFFs:        cfg.InitFFs,
		RoundFFs:       cfg.RoundFFs,
		MaxRounds:      cfg.MaxRounds,
		BudgetFFs:      cfg.BudgetFFs,
		DeltaTol:       cfg.DeltaTol,
		CIWidthTol:     cfg.CIWidthTol,
		Patience:       cfg.Patience,
		CheckpointPath: cfg.Checkpoint,
		Resume:         cfg.Resume,
		OnRound:        cfg.OnRound,
		Metrics:        s.Config.Metrics,
		Logger:         s.Config.Logger,
	})
	if err != nil {
		return nil, fmt.Errorf("core: adaptive study: %w", err)
	}
	return &AdaptiveStudy{Study: s, Planner: loop, StrategyName: name}, nil
}

// Run executes the adaptive campaign to completion.
func (a *AdaptiveStudy) Run() (*plan.Result, error) {
	return a.Planner.Run()
}

// RunContext is Run with cancellation: an interrupted loop flushes its
// checkpoints (when configured) and can be resumed bit-identically.
func (a *AdaptiveStudy) RunContext(ctx context.Context) (*plan.Result, error) {
	return a.Planner.RunContext(ctx)
}

// studyTarget adapts a Study to the planner's injection backend: every round
// is a partial campaign on the study's incremental runner path, and — when
// the loop checkpoints — on a checkpointed fault.Runner, so a mid-round
// interruption resumes from the runner's own chunk state and a re-derived
// round plan must fingerprint-match it.
type studyTarget struct {
	study *Study
}

func (t *studyTarget) NumFFs() int                 { return t.study.NumFFs() }
func (t *studyTarget) FeatureRows() [][]float64    { return t.study.FeatureRows() }
func (t *studyTarget) InjectionsPerFF() int        { return t.study.Config.InjectionsPerFF }
func (t *studyTarget) CampaignFingerprint() uint64 { return t.study.golden.Fingerprint() }

func (t *studyTarget) RunRound(ctx context.Context, ffs []int, checkpointPath string, resume bool) (*fault.Result, error) {
	s := t.study
	jobs := s.planFor(ffs)
	runner, err := fault.NewRunner(s.Program, s.stim, s.monitors, s.classifier, fault.RunnerConfig{
		Model:           s.Config.Model,
		ChunkJobs:       s.Config.ChunkJobs,
		Workers:         s.Config.Workers,
		Golden:          s.golden,
		Snapshots:       s.snapshots,
		Naive:           s.Config.NaiveCampaign,
		Schedule:        s.Config.Schedule,
		CheckpointPath:  checkpointPath,
		CheckpointEvery: s.Config.CheckpointEvery,
		Resume:          resume && checkpointPath != "",
		OnProgress:      s.Config.Progress,
		Metrics:         s.Config.Metrics,
		Logger:          s.Config.Logger,
	})
	if err != nil {
		return nil, err
	}
	return runner.RunContext(ctx, jobs)
}

// planFor extracts the given flip-flops' jobs from the study's full
// injection plan — the same subset rule RunPartialCampaign applies, so a
// flip-flop's measured counts are bit-identical no matter which round (or
// which campaign) measures it.
func (s *Study) planFor(ffs []int) []fault.Job {
	full := fault.NewModelPlan(s.Config.Model, s.NumFFs(), s.Config.InjectionsPerFF, s.activeCycles, s.Config.CampaignSeed)
	want := make(map[int]bool, len(ffs))
	for _, ff := range ffs {
		want[ff] = true
	}
	jobs := make([]fault.Job, 0, len(ffs)*s.Config.InjectionsPerFF)
	for _, j := range full {
		if want[j.FF] {
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// replayTarget serves round measurements straight from a completed
// ground-truth campaign instead of re-simulating them. This is exact, not an
// approximation: a round's plan is the per-FF subset of the full plan
// (planFor), every job's outcome is a deterministic function of (job, golden
// trace), and the equivalence suite pins that partial campaigns reproduce
// ground-truth counts bit-identically. Evaluation protocols use it to sweep
// many strategies against one already-measured campaign at zero simulation
// cost.
type replayTarget struct {
	study    *Study
	campaign *fault.Result
}

func (t *replayTarget) NumFFs() int                 { return t.study.NumFFs() }
func (t *replayTarget) FeatureRows() [][]float64    { return t.study.FeatureRows() }
func (t *replayTarget) InjectionsPerFF() int        { return t.study.Config.InjectionsPerFF }
func (t *replayTarget) CampaignFingerprint() uint64 { return t.study.golden.Fingerprint() }

func (t *replayTarget) RunRound(ctx context.Context, ffs []int, checkpointPath string, resume bool) (*fault.Result, error) {
	res := &fault.Result{
		FDR:        make([]float64, t.study.NumFFs()),
		Failures:   make([]int, t.study.NumFFs()),
		Injections: make([]int, t.study.NumFFs()),
	}
	for _, ff := range ffs {
		res.Failures[ff] = t.campaign.Failures[ff]
		res.Injections[ff] = t.campaign.Injections[ff]
		res.FDR[ff] = t.campaign.FDR[ff]
		res.TotalRuns += t.campaign.Injections[ff]
	}
	return res, nil
}

// AdaptiveOutcome is one strategy's result in an adaptive-vs-full
// comparison.
type AdaptiveOutcome struct {
	// Strategy is the acquisition strategy name.
	Strategy string
	// Rounds, Converged, MeasuredFFs and Injections describe the loop run.
	Rounds      int
	Converged   bool
	MeasuredFFs int
	Injections  int
	// InjectionFrac is Injections over the full-campaign pool cost — the
	// paper-level headline is reaching full-campaign quality at ≤ 0.5.
	InjectionFrac float64
	// R2 and Tau score the loop's final model on the held-out evaluation
	// flip-flops against their ground-truth FDR.
	R2  float64
	Tau float64
	// FFR is the loop's final circuit-level estimate.
	FFR float64
}

// AdaptiveComparison is the outcome of CompareAdaptiveStrategies: a shared
// full-campaign baseline plus one outcome per strategy.
type AdaptiveComparison struct {
	// PoolFFs and EvalFFs are the sizes of the measurable pool and the
	// held-out evaluation set.
	PoolFFs, EvalFFs int
	// FullR2 and FullTau score the full-campaign baseline: the same model
	// trained on every pool flip-flop, evaluated on the held-out set.
	FullR2, FullTau float64
	// TrueFFR is the ground-truth circuit FFR (mean per-FF FDR).
	TrueFFR float64
	// Outcomes holds one entry per requested strategy, in request order.
	Outcomes []AdaptiveOutcome
}

// CompareAdaptiveStrategies measures whether active selection reaches
// full-campaign estimation quality at a fraction of the injections. The
// protocol: draw one stratified 50 % split; the train side is the pool the
// planner may measure, the test side is held out for evaluation. The
// baseline trains spec on the whole pool (the "full campaign"); each
// strategy gets budgetFrac of the pool, spread over `rounds` adaptive rounds
// after an initial half-budget draw. Rounds replay measurements from the
// ground-truth campaign (see replayTarget), so the comparison is exact and
// cheap. Ground truth must be available.
func (s *Study) CompareAdaptiveStrategies(strategies []string, spec ModelSpec, budgetFrac float64, rounds int, seed int64) (*AdaptiveComparison, error) {
	if budgetFrac <= 0 || budgetFrac > 1 {
		return nil, fmt.Errorf("core: adaptive budget fraction %v out of (0,1]", budgetFrac)
	}
	if rounds < 1 {
		return nil, fmt.Errorf("core: adaptive comparison needs >= 1 round, got %d", rounds)
	}
	y, err := s.FDR()
	if err != nil {
		return nil, err
	}
	splits, err := ml.StratifiedShuffleSplits(y, 1, PaperTrainFrac, PaperStratifyBins, seed)
	if err != nil {
		return nil, fmt.Errorf("core: adaptive comparison split: %w", err)
	}
	pool, eval := splits[0].Train, splits[0].Test
	X := s.FeatureRows()
	evalX, evalY := ml.Gather(X, y, eval)

	full := spec.Factory()
	poolX, poolY := ml.Gather(X, y, pool)
	if err := full.Fit(poolX, poolY); err != nil {
		return nil, fmt.Errorf("core: full-campaign baseline fit: %w", err)
	}
	fullPred := ml.PredictAll(full, evalX)

	var trueFFR float64
	for _, v := range y {
		trueFFR += v
	}
	cmp := &AdaptiveComparison{
		PoolFFs: len(pool),
		EvalFFs: len(eval),
		FullR2:  metrics.R2(evalY, fullPred),
		FullTau: metrics.KendallTau(evalY, fullPred),
		TrueFFR: trueFFR / float64(len(y)),
	}

	// Floor, so the spent fraction never exceeds the requested one.
	budget := int(budgetFrac * float64(len(pool)))
	if budget < 2 {
		budget = 2
	}
	// A third of the budget seeds the model, the rest is spent adaptively —
	// the more rounds, the more often the acquisition re-aims.
	init := (budget + 2) / 3
	perRound := (budget - init + rounds - 1) / rounds
	if perRound < 1 {
		perRound = 1
	}
	for _, name := range strategies {
		strategy, err := plan.New(name, spec.Factory, CommitteeFactories())
		if err != nil {
			return nil, err
		}
		loop, err := plan.NewLoop(plan.Config{
			Target:    &replayTarget{study: s, campaign: s.Campaign},
			Strategy:  strategy,
			Model:     spec.Factory,
			ModelName: spec.Name,
			Seed:      seed,
			Pool:      pool,
			InitFFs:   init,
			RoundFFs:  perRound,
			MaxRounds: rounds + 1,
			BudgetFFs: budget,
		})
		if err != nil {
			return nil, fmt.Errorf("core: %s loop: %w", name, err)
		}
		res, err := loop.Run()
		if err != nil {
			return nil, fmt.Errorf("core: %s loop: %w", name, err)
		}
		pred := ml.PredictAll(res.Model, evalX)
		cmp.Outcomes = append(cmp.Outcomes, AdaptiveOutcome{
			Strategy:      name,
			Rounds:        len(res.Rounds),
			Converged:     res.Converged,
			MeasuredFFs:   len(res.Measured),
			Injections:    res.TotalInjections,
			InjectionFrac: float64(res.TotalInjections) / float64(len(pool)*s.Config.InjectionsPerFF),
			R2:            metrics.R2(evalY, pred),
			Tau:           metrics.KendallTau(evalY, pred),
			FFR:           res.FFR,
		})
	}
	return cmp, nil
}
