package core

import (
	"fmt"

	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/obs"
)

// CorpusStudyConfig assembles a study from a registered corpus scenario.
// The zero value is usable: default scale, seed 1, and the scenario's own
// campaign geometry.
type CorpusStudyConfig struct {
	// Scale selects the circuit/workload size (ScaleSmall for smoke runs).
	Scale corpus.Scale
	// Seed drives circuit generation (randomized families) and workload
	// stimulus; 0 means 1.
	Seed int64
	// InjectionsPerFF overrides the scenario's default budget when > 0.
	InjectionsPerFF int
	// CampaignSeed overrides the scenario's default campaign seed when
	// non-zero.
	CampaignSeed int64
	// Model selects the campaign fault model; the zero value is SEU. As in
	// StudyConfig, the model must be FF-targeted (SET is rejected).
	Model fault.Model
	// Workers bounds campaign parallelism (0 = GOMAXPROCS).
	Workers int

	// Campaign runtime knobs, as in StudyConfig.
	ChunkJobs       int
	Shards          int
	Checkpoint      string
	Resume          bool
	CheckpointEvery int
	Progress        func(fault.Progress)
	// NaiveCampaign forces the non-incremental full-replay campaign path
	// (see StudyConfig.NaiveCampaign).
	NaiveCampaign bool
	// Schedule selects the campaign batch-packing schedule (see
	// StudyConfig.Schedule).
	Schedule fault.Schedule
	// Metrics optionally receives campaign metric families (see
	// StudyConfig.Metrics).
	Metrics *obs.Registry
	// Logger optionally receives structured campaign records (see
	// StudyConfig.Logger).
	Logger *obs.Logger
}

// NewCorpusStudy materializes a corpus scenario into a Study: the full
// generate → synthesize → compile → workload → golden → features front end,
// plus a sharded campaign runner wired to the scenario's failure criterion
// and reusing the materialization's golden trace. Every Study method —
// ground truth, Table I protocols, learning curves, cross-circuit transfer —
// then works on the scenario exactly as on the paper's MAC.
func NewCorpusStudy(sc corpus.Scenario, cfg CorpusStudyConfig) (*Study, error) {
	if err := validateStudyModel(cfg.Model); err != nil {
		return nil, err
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	m, err := sc.Materialize(cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("core: corpus study: %w", err)
	}
	injections := cfg.InjectionsPerFF
	if injections <= 0 {
		injections = sc.Entry.Defaults.InjectionsPerFF
	}
	campaignSeed := cfg.CampaignSeed
	if campaignSeed == 0 {
		campaignSeed = sc.Entry.Defaults.CampaignSeed
	}
	chunkJobs := chunkJobsFor(m.NumFFs()*injections, cfg.Shards, cfg.ChunkJobs)
	runner, err := fault.NewRunner(m.Program, m.Bench.Stim, m.Bench.Monitors,
		m.Bench.Classifier, fault.RunnerConfig{
			Model:           cfg.Model,
			ChunkJobs:       chunkJobs,
			Workers:         cfg.Workers,
			Golden:          m.Golden,
			Snapshots:       m.Snapshots,
			Naive:           cfg.NaiveCampaign,
			Schedule:        cfg.Schedule,
			CheckpointPath:  cfg.Checkpoint,
			CheckpointEvery: cfg.CheckpointEvery,
			Resume:          cfg.Resume,
			OnProgress:      cfg.Progress,
			Metrics:         cfg.Metrics,
			Logger:          cfg.Logger,
		})
	if err != nil {
		return nil, fmt.Errorf("core: corpus study runner: %w", err)
	}
	return &Study{
		Config: StudyConfig{
			InjectionsPerFF: injections,
			CampaignSeed:    campaignSeed,
			Model:           cfg.Model,
			Workers:         cfg.Workers,
			ChunkJobs:       cfg.ChunkJobs,
			Shards:          cfg.Shards,
			Checkpoint:      cfg.Checkpoint,
			Resume:          cfg.Resume,
			CheckpointEvery: cfg.CheckpointEvery,
			Progress:        cfg.Progress,
			NaiveCampaign:   cfg.NaiveCampaign,
			Schedule:        cfg.Schedule,
			Metrics:         cfg.Metrics,
			Logger:          cfg.Logger,
		},
		Netlist:      m.Netlist,
		Program:      m.Program,
		Activity:     m.Activity,
		Features:     m.Features,
		CircuitName:  sc.Entry.Name,
		WorkloadName: sc.Workload.Name,
		classifier:   m.Bench.Classifier,
		golden:       m.Golden,
		snapshots:    m.Snapshots,
		runner:       runner,
		stim:         m.Bench.Stim,
		monitors:     m.Bench.Monitors,
		activeCycles: m.Bench.ActiveCycles,
	}, nil
}
