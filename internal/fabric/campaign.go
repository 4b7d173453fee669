package fabric

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/api"
	"repro/internal/circuit"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// Campaign is a materialized campaign spec: everything one node needs to
// simulate chunks of the plan or merge their results. Coordinator and
// workers each build their own from the same spec; the fingerprints prove
// they agree.
type Campaign struct {
	// Spec is the fully resolved spec (defaults filled in).
	Spec api.CampaignSpec
	// M is the materialized corpus scenario (program, bench, golden trace,
	// snapshots).
	M *corpus.Materialized
	// Jobs is the deterministic injection plan.
	Jobs []fault.Job
	// Shards is the chunk geometry of the plan.
	Shards fault.Shards
	// Runner executes chunks (workers) and merges masks (coordinator),
	// preloaded with the golden trace and snapshots from M.
	Runner *fault.Runner
	// PlanHash and GoldenHash fingerprint the plan and golden trace.
	PlanHash   uint64
	GoldenHash uint64
}

// ResolveSpec validates a campaign spec and fills every default — scale,
// injection budget, campaign seed, chunk size, schedule — so the resolved
// spec is fully explicit and a worker can rebuild the identical campaign
// from the wire copy alone.
func ResolveSpec(spec api.CampaignSpec) (api.CampaignSpec, error) {
	sc, err := corpus.Find(spec.Scenario)
	if err != nil {
		return spec, err
	}
	spec.Scenario = sc.ID()
	if spec.Scale == "" {
		spec.Scale = corpus.ScaleSmall.String()
	}
	if _, err := corpus.ParseScale(spec.Scale); err != nil {
		return spec, err
	}
	if spec.InjectionsPerFF == 0 {
		spec.InjectionsPerFF = sc.Entry.Defaults.InjectionsPerFF
	}
	if spec.InjectionsPerFF < 1 {
		return spec, fmt.Errorf("fabric: injections per FF %d < 1", spec.InjectionsPerFF)
	}
	if spec.CampaignSeed == 0 {
		spec.CampaignSeed = sc.Entry.Defaults.CampaignSeed
	}
	if spec.ChunkJobs < 0 {
		return spec, fmt.Errorf("fabric: negative chunk size %d", spec.ChunkJobs)
	}
	if spec.ChunkJobs == 0 {
		spec.ChunkJobs = fault.DefaultChunkJobs
	}
	if spec.Schedule == "" {
		spec.Schedule = string(fault.ScheduleClustered)
	}
	model, err := fault.ParseModel(spec.FaultModel)
	if err != nil {
		return spec, fmt.Errorf("fabric: %v", err)
	}
	spec.FaultModel = model.String()
	if len(spec.Harden) > 0 {
		sorted := append([]int(nil), spec.Harden...)
		sort.Ints(sorted)
		dedup := sorted[:0]
		for i, ff := range sorted {
			if ff < 0 {
				return spec, fmt.Errorf("fabric: negative harden index %d", ff)
			}
			if i > 0 && ff == sorted[i-1] {
				continue
			}
			dedup = append(dedup, ff)
		}
		// Range validation against the actual FF count happens at
		// materialization time; here the spec is canonicalized so equal
		// selections serialize identically.
		spec.Harden = dedup
	}
	return spec, nil
}

// BuildCampaign materializes a spec into a runnable campaign. workers
// bounds the local simulation pool (0 = GOMAXPROCS). The result is
// deterministic in the spec: two nodes building the same spec get
// fingerprint-identical plans and golden traces.
func BuildCampaign(spec api.CampaignSpec, workers int) (*Campaign, error) {
	return BuildCampaignObs(spec, workers, nil, nil)
}

// BuildCampaignObs is BuildCampaign with node-local campaign
// instrumentation: the chunk runner reports its ffr_campaign_* metric
// families to reg and structured campaign records to log (either may be
// nil; instrumentation never changes results).
func BuildCampaignObs(spec api.CampaignSpec, workers int, reg *obs.Registry, log *obs.Logger) (*Campaign, error) {
	spec, err := ResolveSpec(spec)
	if err != nil {
		return nil, err
	}
	sc, err := corpus.Find(spec.Scenario)
	if err != nil {
		return nil, err
	}
	scale, err := corpus.ParseScale(spec.Scale)
	if err != nil {
		return nil, err
	}
	var rewrite func(*netlist.Netlist) error
	if len(spec.Harden) > 0 {
		harden := spec.Harden
		rewrite = func(nl *netlist.Netlist) error {
			return circuit.ApplyTMR(nl, harden)
		}
	}
	m, err := sc.MaterializeWith(scale, spec.Seed, rewrite)
	if err != nil {
		return nil, err
	}
	model, err := fault.ParseModel(spec.FaultModel)
	if err != nil {
		return nil, fmt.Errorf("fabric: %v", err)
	}
	jobs := fault.NewModelPlan(model, model.NumTargets(m.Program), spec.InjectionsPerFF,
		m.Bench.ActiveCycles, spec.CampaignSeed)
	runner, err := fault.NewRunner(m.Program, m.Bench.Stim, m.Bench.Monitors, m.Bench.Classifier,
		fault.RunnerConfig{
			Model:     model,
			ChunkJobs: spec.ChunkJobs,
			Workers:   workers,
			Golden:    m.Golden,
			Snapshots: m.Snapshots,
			Schedule:  fault.Schedule(spec.Schedule),
			Metrics:   reg,
			Logger:    log,
		})
	if err != nil {
		return nil, err
	}
	shards, err := fault.PlanShards(len(jobs), spec.ChunkJobs)
	if err != nil {
		return nil, err
	}
	golden, err := runner.Golden()
	if err != nil {
		return nil, err
	}
	return &Campaign{
		Spec:       spec,
		M:          m,
		Jobs:       jobs,
		Shards:     shards,
		Runner:     runner,
		PlanHash:   fault.PlanFingerprint(jobs),
		GoldenHash: golden.Fingerprint(),
	}, nil
}

// PlanHashHex and GoldenHashHex are the wire encodings of the fingerprints.
func (c *Campaign) PlanHashHex() string   { return strconv.FormatUint(c.PlanHash, 16) }
func (c *Campaign) GoldenHashHex() string { return strconv.FormatUint(c.GoldenHash, 16) }

// CheckAgainst verifies this campaign matches a coordinator's join
// response; a mismatch means the two nodes materialized different
// campaigns (diverged code, corpus or spec) and the worker must not
// contribute masks.
func (c *Campaign) CheckAgainst(join api.JoinResponse) error {
	if got := c.PlanHashHex(); got != join.PlanHash {
		return fmt.Errorf("fabric: plan fingerprint mismatch: local %s, coordinator %s", got, join.PlanHash)
	}
	if got := c.GoldenHashHex(); got != join.GoldenHash {
		return fmt.Errorf("fabric: golden-trace fingerprint mismatch: local %s, coordinator %s", got, join.GoldenHash)
	}
	if c.Shards.TotalJobs() != join.TotalJobs || c.Shards.ChunkJobs() != join.ChunkJobs ||
		c.Shards.NumChunks() != join.NumChunks {
		return fmt.Errorf("fabric: shard geometry mismatch: local %d/%d/%d, coordinator %d/%d/%d",
			c.Shards.TotalJobs(), c.Shards.ChunkJobs(), c.Shards.NumChunks(),
			join.TotalJobs, join.ChunkJobs, join.NumChunks)
	}
	return nil
}
