package fault

import (
	"fmt"
	"math/rand"

	"repro/internal/sim"
)

// Job is one scheduled injection of a campaign: inject a fault at target FF
// at the given cycle. What "inject" means — and what index space FF draws
// from — is defined by the campaign's fault Model: under the FF-targeted
// models (SEU, MBU, stuck-at) FF indexes flip-flops and the fault is a flip,
// a cluster flip or a forced hold; under SET it indexes combinational cells
// and the fault is a one-evaluation output pulse. The name FF is kept for
// compatibility with serialized plans from SEU-only versions.
type Job struct {
	FF    int
	Cycle int
}

// Classifier inspects one faulty lane of a monitored trace against the
// golden trace and reports whether the lane exhibits a functional failure.
// Implementations define the applicative failure criterion.
type Classifier interface {
	// FailingLanes returns a bitmask of lanes in faulty that fail against
	// golden. used is the mask of lanes carrying real jobs.
	FailingLanes(golden, faulty *sim.Trace, used uint64) uint64
}

// ConfigFingerprinter is an optional Classifier extension: a stable digest
// of the failure criterion's configuration. Checkpoints record it so a
// campaign cannot be resumed under a different criterion than it was
// started with (failure masks from two criteria must never be merged).
type ConfigFingerprinter interface {
	ConfigFingerprint() uint64
}

// StreamClassifier is an optional Classifier extension for streaming
// early-exit classification: instead of waiting for the full faulty trace,
// the classifier observes the batch cycle by cycle and reports lanes whose
// failure is already certain. The runner stops a batch as soon as every used
// lane is either stream-confirmed failed or has re-converged to the golden
// engine state (the fault effect expired), because no remaining cycle can
// change either verdict.
//
// Soundness contract: a lane reported failed by Observe MUST be classified
// as failing by FailingLanes no matter what the remaining cycles hold —
// whether they are the lane's real future or the golden rows the runner
// substitutes once the lane is confirmed or the batch exits early. The
// runner keeps its side by showing Observe exactly the rows FailingLanes
// will judge, SET output glitches included. Classifiers whose criterion
// cannot confirm failures mid-run simply don't implement this interface and
// still benefit from golden fast-forward and re-convergence exits; their
// verdict always comes from the trace-based FailingLanes path.
type StreamClassifier interface {
	Classifier
	// StartStream begins streaming classification of one 64-lane batch
	// against the golden trace. used masks the lanes carrying real jobs;
	// from is the first cycle Observe will see — every earlier cycle is
	// bit-identical to golden (the batch's fast-forwarded prefix), which
	// stateful streams fold in by replaying the golden trace up to from.
	StartStream(golden *sim.Trace, used uint64, from int) Stream
}

// Stream observes consecutive simulated cycles of one faulty batch. Streams
// are single-batch, single-goroutine state machines; StartStream returns a
// fresh one per batch.
type Stream interface {
	// Observe consumes cycle c's packed monitor words (golden and faulty,
	// one word per monitor in recording order) and returns the cumulative
	// mask of lanes already certain to fail. Cycles arrive in order, but
	// Observe may not see every cycle from 0: the runner starts at the
	// batch's fast-forward point, where every lane is still bit-identical
	// to golden.
	Observe(cycle int, golden, faulty []uint64) uint64
}

// CampaignConfig parameterizes RunCampaign.
type CampaignConfig struct {
	// Model selects the fault model; the zero value is the SEU reference
	// model (one flip-flop flip, full active window).
	Model Model
	// InjectionsPerFF is the number of injection runs per target (the
	// paper uses 170 per flip-flop).
	InjectionsPerFF int
	// ActiveCycles bounds injection times: cycles are drawn uniformly
	// from [0, ActiveCycles), restricted further by a windowed Model.
	ActiveCycles int
	// Seed drives injection-time sampling.
	Seed int64
	// Workers is the worker-pool size; 0 means GOMAXPROCS.
	Workers int
}

// Validate checks the configuration against the stimulus.
func (c CampaignConfig) Validate(stimCycles int) error {
	if c.InjectionsPerFF < 1 {
		return fmt.Errorf("fault: InjectionsPerFF %d < 1", c.InjectionsPerFF)
	}
	if c.ActiveCycles < 1 || c.ActiveCycles > stimCycles {
		return fmt.Errorf("fault: ActiveCycles %d out of (0,%d]", c.ActiveCycles, stimCycles)
	}
	if c.Workers < 0 {
		return fmt.Errorf("fault: negative Workers %d", c.Workers)
	}
	return nil
}

// Result is the outcome of a campaign. The per-target arrays are indexed by
// the campaign model's target space: flip-flop index for SEU, MBU and
// stuck-at (an MBU is counted against its anchor flip-flop), combinational
// target index for SET.
type Result struct {
	// FDR is the per-target Functional De-Rating factor:
	// failures / injections.
	FDR []float64
	// Failures and Injections are the per-target raw counts.
	Failures   []int
	Injections []int
	// TotalRuns is the number of injection runs simulated.
	TotalRuns int
	// Batches is the number of 64-lane simulation passes.
	Batches int
	// Chunks is the number of shard chunks the plan was split into.
	Chunks int
	// ResumedChunks is how many chunks were restored from a checkpoint
	// instead of simulated.
	ResumedChunks int
	// SimulatedCycles counts the engine cycles actually simulated in this
	// run (chunks restored from a checkpoint contribute nothing).
	SimulatedCycles int64
	// ReplayCycles is what the naive full-replay path would have simulated
	// for the same chunks: computed batches × stimulus cycles. On the
	// naive path SimulatedCycles == ReplayCycles; their ratio is the
	// incremental engine's cycle saving.
	ReplayCycles int64
}

// NewPlan samples the paper's injection plan: for every flip-flop of p,
// injectionsPerFF uniformly random cycles in [0, activeCycles). The plan is
// ordered by flip-flop, matching how the paper reports per-instance results.
func NewPlan(numFFs, injectionsPerFF, activeCycles int, seed int64) []Job {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]Job, 0, numFFs*injectionsPerFF)
	for ff := 0; ff < numFFs; ff++ {
		for k := 0; k < injectionsPerFF; k++ {
			jobs = append(jobs, Job{FF: ff, Cycle: rng.Intn(activeCycles)})
		}
	}
	return jobs
}

// RunCampaign executes the full flat statistical campaign: a golden run,
// then every job of the plan in 64-lane batches, classified by cls. The
// zero-valued cfg.Model runs the paper's SEU campaign, whose plan and
// results are bit-identical to the pre-model NewPlan path.
func RunCampaign(p *sim.Program, stim *sim.Stimulus, monitors []int, cls Classifier, cfg CampaignConfig) (*Result, error) {
	if err := cfg.Validate(stim.Cycles()); err != nil {
		return nil, err
	}
	r, err := NewRunner(p, stim, monitors, cls, RunnerConfig{Workers: cfg.Workers, Model: cfg.Model})
	if err != nil {
		return nil, err
	}
	jobs := NewModelPlan(cfg.Model, cfg.Model.NumTargets(p), cfg.InjectionsPerFF, cfg.ActiveCycles, cfg.Seed)
	return r.Run(jobs)
}

// RunJobs executes an explicit injection plan on an ephemeral runner with
// the given configuration. The core estimation flow uses it to fault-inject
// only the training subset of flip-flops, passing the study's golden trace
// and snapshots through cfg so partial campaigns ride the incremental path
// without re-simulating either.
func RunJobs(p *sim.Program, stim *sim.Stimulus, monitors []int, cls Classifier, jobs []Job, cfg RunnerConfig) (*Result, error) {
	r, err := NewRunner(p, stim, monitors, cls, cfg)
	if err != nil {
		return nil, err
	}
	return r.Run(jobs)
}
