package harden

import (
	"context"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// VerifyConfig parameterizes the verification campaign that re-measures a
// hardened design. The zero value of every campaign knob adopts the
// scenario's (or runner's) default, so the minimal config is just the
// scenario coordinates the plan was advised on.
type VerifyConfig struct {
	// Scenario, Scale and Seed are the materialization coordinates; they
	// must match what the plan was advised on for the comparison to mean
	// anything.
	Scenario corpus.Scenario
	Scale    corpus.Scale
	Seed     int64
	// InjectionsPerFF and CampaignSeed shape the verify campaign;
	// 0 adopts the scenario's default geometry.
	InjectionsPerFF int
	CampaignSeed    int64
	// Workers, ChunkJobs and Schedule are passed to the campaign runner.
	Workers   int
	ChunkJobs int
	Schedule  fault.Schedule
	// CheckpointPath enables checkpointing of the hardened campaign; the
	// baseline campaign (when run) checkpoints to CheckpointPath +
	// ".baseline". Resume picks both up where they stopped.
	CheckpointPath  string
	CheckpointEvery int
	Resume          bool
	// SkipBaseline skips the unhardened reference campaign; the
	// verification then reports only the measured residual.
	SkipBaseline bool
	// OnProgress, Metrics and Logger instrument the campaigns.
	OnProgress func(fault.Progress)
	Metrics    *obs.Registry
	Logger     *obs.Logger
}

// Verification is the outcome of re-measuring a hardened design: the
// advisor's predicted residual FFR next to the campaign-measured one, plus
// the baseline for the improvement claim. FFR is the sum of per-FF FDR.
type Verification struct {
	// PredictedResidualFFR restates the plan's prediction.
	PredictedResidualFFR float64
	// MeasuredResidualFFR sums the measured FDR over every flip-flop of
	// the hardened design (originals and replicas).
	MeasuredResidualFFR float64
	// BaselineFFR sums the measured FDR of the unhardened design; zero
	// when SkipBaseline was set (see Baseline == nil to tell apart).
	BaselineFFR float64
	// HardenedFFs is the number of flip-flops the plan hardened;
	// BaselineNumFFs and HardenedNumFFs count design flip-flops before
	// and after the rewrite (two replicas each).
	HardenedFFs    int
	BaselineNumFFs int
	HardenedNumFFs int
	// BaseFingerprint and HardenedFingerprint are the netlist fingerprints
	// before and after the rewrite; they always differ for a non-empty
	// selection while the golden traces stay bit-identical.
	BaseFingerprint     uint64
	HardenedFingerprint uint64
	// Hardened and Baseline are the raw campaign results (Baseline nil
	// when skipped).
	Hardened *fault.Result
	Baseline *fault.Result
}

// Improved reports whether the measured residual FFR is strictly below the
// measured baseline FFR; it requires the baseline campaign.
func (v *Verification) Improved() bool {
	return v.Baseline != nil && v.MeasuredResidualFFR < v.BaselineFFR
}

// Verify re-materializes the plan's scenario with the TMR rewrite applied
// and re-runs the fault campaign on the hardened netlist. It checks the
// rewrite invariant (fingerprint changes, golden trace bit-identical)
// before spending any injection time, then measures residual FFR — and,
// unless skipped, the unhardened baseline FFR from a second campaign, so
// the improvement and the predictor's calibration are both measured
// claims. Campaigns are checkpointed and resumable per cfg; ctx cancels
// between chunks with the checkpoint flushed.
func Verify(ctx context.Context, plan *Plan, cfg VerifyConfig) (*Verification, error) {
	if plan == nil {
		return nil, fmt.Errorf("harden: nil plan")
	}
	if cfg.Scenario.Entry == nil || cfg.Scenario.Workload == nil {
		return nil, fmt.Errorf("harden: verify needs a scenario")
	}
	sel := plan.SelectedFFs()
	m0, err := cfg.Scenario.Materialize(cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	mh, err := cfg.Scenario.MaterializeWith(cfg.Scale, cfg.Seed, func(nl *netlist.Netlist) error {
		return circuit.ApplyTMR(nl, sel)
	})
	if err != nil {
		return nil, err
	}
	v := &Verification{
		PredictedResidualFFR: plan.ResidualFFR,
		HardenedFFs:          len(sel),
		BaselineNumFFs:       m0.NumFFs(),
		HardenedNumFFs:       mh.NumFFs(),
		BaseFingerprint:      m0.Netlist.Fingerprint(),
		HardenedFingerprint:  mh.Netlist.Fingerprint(),
	}
	if len(sel) > 0 && v.HardenedFingerprint == v.BaseFingerprint {
		return nil, fmt.Errorf("harden: TMR rewrite left the netlist fingerprint unchanged")
	}
	if !m0.Golden.Equal(mh.Golden) {
		return nil, fmt.Errorf("harden: hardened golden trace diverges from the original — the rewrite broke fault-free behavior")
	}

	n := cfg.InjectionsPerFF
	if n == 0 {
		n = cfg.Scenario.Entry.Defaults.InjectionsPerFF
	}
	seed := cfg.CampaignSeed
	if seed == 0 {
		seed = cfg.Scenario.Entry.Defaults.CampaignSeed
	}

	v.Hardened, err = v.runCampaign(ctx, mh, n, seed, cfg, cfg.CheckpointPath)
	if err != nil {
		return nil, fmt.Errorf("harden: hardened campaign: %w", err)
	}
	v.MeasuredResidualFFR = sumFDR(v.Hardened)

	if !cfg.SkipBaseline {
		ckpt := cfg.CheckpointPath
		if ckpt != "" {
			ckpt += ".baseline"
		}
		v.Baseline, err = v.runCampaign(ctx, m0, n, seed, cfg, ckpt)
		if err != nil {
			return nil, fmt.Errorf("harden: baseline campaign: %w", err)
		}
		v.BaselineFFR = sumFDR(v.Baseline)
	}
	return v, nil
}

// runCampaign executes one flat campaign over the materialized design.
func (v *Verification) runCampaign(ctx context.Context, m *corpus.Materialized, n int, seed int64, cfg VerifyConfig, checkpoint string) (*fault.Result, error) {
	jobs := fault.NewPlan(m.NumFFs(), n, m.Bench.ActiveCycles, seed)
	runner, err := fault.NewRunner(m.Program, m.Bench.Stim, m.Bench.Monitors, m.Bench.Classifier,
		fault.RunnerConfig{
			ChunkJobs:       cfg.ChunkJobs,
			Workers:         cfg.Workers,
			Golden:          m.Golden,
			Snapshots:       m.Snapshots,
			Schedule:        cfg.Schedule,
			CheckpointPath:  checkpoint,
			CheckpointEvery: cfg.CheckpointEvery,
			Resume:          cfg.Resume && checkpoint != "",
			OnProgress:      cfg.OnProgress,
			Metrics:         cfg.Metrics,
			Logger:          cfg.Logger,
		})
	if err != nil {
		return nil, err
	}
	return runner.RunContext(ctx, jobs)
}

// sumFDR folds a campaign result into the design FFR (sum of per-FF FDR).
func sumFDR(res *fault.Result) float64 {
	var s float64
	for _, f := range res.FDR {
		s += f
	}
	return s
}
