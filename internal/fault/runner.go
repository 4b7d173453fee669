package fault

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Runner is the sharded, resumable campaign runtime. It deterministically
// splits an injection plan into fixed-size chunks of whole 64-lane batches,
// fans the chunks out across a bounded worker pool, streams per-chunk
// partial results through a merge stage, and (when configured) periodically
// checkpoints completed-chunk state to disk so an interrupted campaign can
// resume exactly where it stopped.
//
// Faulty batches run incrementally on the compiled kernel unless
// RunnerConfig.Naive selects the full-replay interpreter oracle. Three
// mechanisms compose, all of them result-preserving (the equivalence suite
// pins bit-identical failure masks against the naive path):
//
//   - Golden fast-forward: the golden run captures periodic engine-state
//     snapshots (sim.Snapshots); every faulty batch restores the snapshot at
//     or before its earliest injection cycle instead of re-simulating the
//     prefix, which is provably identical to golden because lanes only
//     diverge at their first flip.
//   - Streaming early exit: a batch stops as soon as every used lane is
//     either confirmed failed by a streaming classifier (StreamClassifier)
//     or has re-converged to the golden engine state — in both cases the
//     remaining cycles cannot change the verdict, so the trace suffix is
//     filled from the golden run and classified as usual.
//   - Cycle-clustered scheduling: jobs are packed into batches in ascending
//     injection-cycle order (see Schedule), so each batch spans a narrow
//     cycle window and the prefix skip actually bites.
//
// Determinism is structural: a chunk's failure masks depend only on the
// plan, the schedule and the golden trace, never on scheduling of workers,
// worker count, chunk size, snapshot cadence, the engine or how often the
// run was interrupted. Resuming from a checkpoint therefore produces
// bit-identical per-FF failure counts to an uninterrupted run — a property
// the tests pin.
//
// The golden trace is simulated at most once per Runner and reused across
// all shards and Run calls (and can be supplied up front when the caller
// already has it, as the core study does — ideally together with the
// snapshots captured during that same run).

// Default shard geometry and checkpoint cadence.
const (
	// DefaultChunkJobs is the default shard chunk size: 16 batches.
	DefaultChunkJobs = 16 * sim.Lanes
	// DefaultCheckpointEvery is the default number of completed chunks
	// between checkpoint flushes.
	DefaultCheckpointEvery = 4
)

// ErrInterrupted reports a campaign stopped by context cancellation. The
// checkpoint (when configured) has been flushed with all completed chunks.
var ErrInterrupted = errors.New("fault: campaign interrupted")

// Progress is a point-in-time view of a running campaign, delivered to
// RunnerConfig.OnProgress after every completed chunk.
type Progress struct {
	// JobsDone and JobsTotal count injection runs, including runs
	// restored from a checkpoint.
	JobsDone, JobsTotal int
	// ChunksDone and ChunksTotal count shard chunks.
	ChunksDone, ChunksTotal int
	// ChunksResumed is how many of ChunksDone were restored from the
	// checkpoint rather than simulated in this run.
	ChunksResumed int
	// Elapsed is the wall time since Run started.
	Elapsed time.Duration
	// ETA estimates the remaining wall time from this run's own
	// throughput; it is zero until at least one chunk has been simulated.
	ETA time.Duration
}

// RunnerConfig parameterizes a Runner.
type RunnerConfig struct {
	// Model selects the fault model jobs are executed under; the zero
	// value is the SEU reference model. The model defines what a job's
	// target index means (flip-flop, or combinational cell for SET) and
	// what engine events a job expands into — see Model. Checkpoints
	// record the model and refuse to resume under a different one.
	Model Model
	// ChunkJobs is the shard chunk size in jobs; it is rounded up to a
	// whole number of 64-lane batches. 0 means DefaultChunkJobs.
	ChunkJobs int
	// Workers bounds the worker pool; 0 means GOMAXPROCS.
	Workers int
	// Golden optionally supplies a precomputed golden trace. When nil the
	// Runner simulates it once on first use.
	Golden *sim.Trace
	// Snapshots optionally supplies the golden engine-state restore points
	// captured during the caller's golden run (sim.RunConfig.Snapshots).
	// When nil the Runner captures its own on first use — during its own
	// golden run when it simulates one, otherwise via one extra golden-rate
	// replay, amortized over the campaign.
	Snapshots *sim.Snapshots
	// SnapshotEvery is the snapshot cadence in cycles for Runner-captured
	// snapshots; 0 means sim.DefaultSnapshotEvery. It must be 0 or match
	// the cadence of a supplied Snapshots set. The cadence never changes
	// results, only the fast-forward and early-exit granularity.
	SnapshotEvery int
	// Schedule selects how jobs are packed into 64-lane batches; ""
	// means ScheduleClustered. Checkpoints record the schedule their
	// masks were packed under: resuming under an explicitly different
	// schedule is rejected, while the "" default adopts the checkpoint's
	// schedule — so plan-order checkpoints from before schedules existed
	// stay resumable without any configuration.
	Schedule Schedule
	// Naive forces the non-incremental reference path: every 64-lane
	// batch replays the stimulus from cycle 0 on the interpreter
	// (sim.Engine) and is classified post hoc over the full trace. Results
	// are bit-identical to the kernel path, so checkpoints resume across
	// the two; the equivalence suite and before/after benchmarks rely on
	// that. The default path runs faulty batches incrementally on the
	// compiled kernel (sim.KernelEngine), one batch of up to
	// 64·sim.DefaultKernelWords lanes per chunk — a default chunk's 1024
	// jobs in one pass; the golden run always uses the interpreter.
	Naive bool
	// CheckpointPath enables checkpointing to this file; "" disables it.
	CheckpointPath string
	// CheckpointEvery is the number of completed chunks between flushes;
	// 0 means DefaultCheckpointEvery.
	CheckpointEvery int
	// Resume loads CheckpointPath (if it exists) before running and skips
	// its completed chunks. Requires CheckpointPath.
	Resume bool
	// OnProgress, when non-nil, is invoked from the merge stage after
	// every completed chunk.
	OnProgress func(Progress)
	// Metrics optionally receives the ffr_campaign_* metric families
	// (per-chunk wall time, simulated-vs-replay cycles, fast-forward hit
	// rate, early-exit reasons, checkpoint latency, job progress gauges);
	// nil disables campaign metrics.
	Metrics *obs.Registry
	// Logger optionally receives structured campaign records (start,
	// per-chunk completions, checkpoint flushes); nil disables logging.
	Logger *obs.Logger
}

// Runner executes injection plans; see the package comment above.
type Runner struct {
	p        *sim.Program
	stim     *sim.Stimulus
	monitors []int
	cls      Classifier
	cfg      RunnerConfig
	schedule Schedule
	// scheduleSet records whether the schedule was an explicit choice;
	// the zero value adopts a resumed checkpoint's schedule instead of
	// rejecting it, keeping pre-schedule (plan-order) checkpoints usable.
	scheduleSet bool
	// model is the resolved fault model (normalized; never zero-valued).
	model Model

	metrics *campaignMetrics
	log     *obs.Logger

	// clusters are the lazily computed MBU proximity clusters.
	clusterOnce sync.Once
	clusters    [][]int

	kernOnce sync.Once
	kern     *sim.Kernel
	kernErr  error

	goldenOnce sync.Once
	golden     *sim.Trace
	goldenErr  error

	snapOnce sync.Once
	snaps    *sim.Snapshots
}

// NewRunner validates the configuration and returns a Runner.
func NewRunner(p *sim.Program, stim *sim.Stimulus, monitors []int, cls Classifier, cfg RunnerConfig) (*Runner, error) {
	if p == nil || stim == nil || cls == nil {
		return nil, fmt.Errorf("fault: runner needs a program, stimulus and classifier")
	}
	if len(monitors) == 0 {
		return nil, fmt.Errorf("fault: runner needs at least one monitored output")
	}
	if len(monitors) > math.MaxUint16 || stim.Cycles() > math.MaxInt32 {
		// Recorded trace differences pack the monitor index and cycle.
		return nil, fmt.Errorf("fault: runner supports at most %d monitors over %d cycles",
			math.MaxUint16, math.MaxInt32)
	}
	if cfg.ChunkJobs < 0 {
		return nil, fmt.Errorf("fault: negative ChunkJobs %d", cfg.ChunkJobs)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("fault: negative Workers %d", cfg.Workers)
	}
	if cfg.CheckpointEvery < 0 {
		return nil, fmt.Errorf("fault: negative CheckpointEvery %d", cfg.CheckpointEvery)
	}
	if cfg.SnapshotEvery < 0 {
		return nil, fmt.Errorf("fault: negative SnapshotEvery %d", cfg.SnapshotEvery)
	}
	if cfg.Resume && cfg.CheckpointPath == "" {
		return nil, fmt.Errorf("fault: Resume requires a CheckpointPath")
	}
	if !cfg.Schedule.valid() {
		return nil, fmt.Errorf("fault: unknown schedule %q", cfg.Schedule)
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if cfg.Snapshots != nil {
		if err := cfg.Snapshots.Matches(p, stim); err != nil {
			return nil, fmt.Errorf("fault: supplied snapshots: %w", err)
		}
		if cfg.SnapshotEvery != 0 && cfg.SnapshotEvery != cfg.Snapshots.Every() {
			return nil, fmt.Errorf("fault: SnapshotEvery %d conflicts with supplied snapshot cadence %d",
				cfg.SnapshotEvery, cfg.Snapshots.Every())
		}
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = DefaultCheckpointEvery
	}
	r := &Runner{
		p: p, stim: stim, monitors: monitors, cls: cls, cfg: cfg,
		schedule:    cfg.Schedule.normalize(),
		scheduleSet: cfg.Schedule != "",
		model:       cfg.Model.normalize(),
		golden:      cfg.Golden,
		snaps:       cfg.Snapshots,
		log:         cfg.Logger.Component("campaign"),
	}
	if cfg.Metrics != nil {
		r.metrics = newCampaignMetrics(cfg.Metrics, r.engine())
	}
	return r, nil
}

// Golden returns the golden reference trace, simulating it on first use.
// Every shard of every Run call classifies against this one trace. A
// supplied trace is validated against the stimulus geometry; a mismatched
// golden would silently misclassify every lane.
func (r *Runner) Golden() (*sim.Trace, error) {
	r.goldenOnce.Do(func() {
		if r.golden == nil {
			// Capture snapshots during this one golden run when the
			// incremental path will need them and none were supplied.
			var snaps *sim.Snapshots
			if r.snaps == nil && !r.cfg.Naive {
				snaps = sim.NewSnapshots(r.p, r.stim, r.cfg.SnapshotEvery)
			}
			e := sim.NewEngine(r.p)
			r.golden, _ = sim.Run(e, r.stim, sim.RunConfig{Monitors: r.monitors, Snapshots: snaps})
			if snaps != nil {
				r.snaps = snaps
			}
		}
		if r.golden == nil {
			r.goldenErr = fmt.Errorf("fault: golden simulation produced no trace")
			return
		}
		if r.golden.Cycles() != r.stim.Cycles() {
			r.goldenErr = fmt.Errorf("fault: golden trace covers %d cycles, stimulus has %d",
				r.golden.Cycles(), r.stim.Cycles())
			return
		}
		if len(r.golden.Monitors) != len(r.monitors) {
			r.goldenErr = fmt.Errorf("fault: golden trace records %d monitors, campaign monitors %d",
				len(r.golden.Monitors), len(r.monitors))
			return
		}
		for i, m := range r.monitors {
			if r.golden.Monitors[i] != m {
				r.goldenErr = fmt.Errorf("fault: golden trace monitor %d is port %d, campaign monitors port %d",
					i, r.golden.Monitors[i], m)
				return
			}
		}
	})
	return r.golden, r.goldenErr
}

// snapshots returns the golden restore points, capturing them with one
// golden-rate replay if neither the config nor Golden() produced them.
func (r *Runner) snapshots() *sim.Snapshots {
	r.snapOnce.Do(func() {
		if r.snaps != nil {
			return
		}
		snaps := sim.NewSnapshots(r.p, r.stim, r.cfg.SnapshotEvery)
		e := sim.NewEngine(r.p)
		sim.Run(e, r.stim, sim.RunConfig{Snapshots: snaps})
		r.snaps = snaps
	})
	return r.snaps
}

// Run executes the plan to completion (or until the checkpoint says it
// already completed). It is RunContext with a background context.
func (r *Runner) Run(jobs []Job) (*Result, error) {
	return r.RunContext(context.Background(), jobs)
}

// RunContext executes the plan. On context cancellation it finishes the
// chunks already in flight, flushes the checkpoint (when configured) and
// returns an error wrapping ErrInterrupted; a later call with Resume set
// picks up from the flushed state.
func (r *Runner) RunContext(ctx context.Context, jobs []Job) (*Result, error) {
	// Internal cancellation lets the merge stage stop dispatching new
	// chunks as soon as a checkpoint save fails.
	ctx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	run, err := r.prepare(jobs)
	if err != nil {
		return nil, err
	}
	sh, golden := run.sh, run.golden

	// Restore completed chunks from the checkpoint, if resuming. This may
	// adopt the checkpoint's schedule (see matchCheckpoint), so the
	// lane-packing permutation is computed after it.
	done := make(map[int][]uint64, sh.numChunks)
	if r.cfg.Resume {
		ck, err := LoadCheckpoint(r.cfg.CheckpointPath)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// Nothing to resume; run from scratch.
		case err != nil:
			return nil, err
		default:
			if err := r.matchCheckpoint(ck, jobs, sh, golden); err != nil {
				return nil, err
			}
			for ci, masks := range ck.Chunks {
				done[ci] = masks
			}
		}
	}
	if run.order, err = scheduleOrder(jobs, r.schedule); err != nil {
		return nil, err
	}
	resumed := len(done)
	jobsDone := 0
	for ci := range done {
		lo, hi := sh.chunkRange(ci)
		jobsDone += hi - lo
	}

	pending := make([]int, 0, sh.numChunks-resumed)
	for ci := 0; ci < sh.numChunks; ci++ {
		if _, ok := done[ci]; !ok {
			pending = append(pending, ci)
		}
	}

	r.metrics.startCampaign(jobsDone, sh.totalJobs)
	r.log.Info("campaign start",
		obs.F("jobs", sh.totalJobs),
		obs.F("chunks", sh.numChunks),
		obs.F("resumed", resumed),
		obs.F("workers", r.workers()),
		obs.F("schedule", string(r.schedule)),
		obs.F("backend", r.engine()),
		obs.F("lanes_per_batch", run.lanes()),
		obs.F("naive", r.cfg.Naive))

	// Merge stage: collect chunk results, report progress, checkpoint.
	start := time.Now()
	sinceFlush := 0
	var saveErr error
	var simCycles, replayCycles int64
	for cr := range r.simulate(ctx, run, pending) {
		done[cr.index] = cr.masks
		lo, hi := sh.chunkRange(cr.index)
		jobsDone += hi - lo
		crReplay := int64(sh.chunkBatches(cr.index)) * int64(r.stim.Cycles())
		simCycles += cr.simCycles
		replayCycles += crReplay
		sinceFlush++
		r.metrics.mergeChunk(jobsDone, cr.simCycles, crReplay)
		if r.log.Enabled(obs.LevelDebug) {
			r.log.Debug("chunk merged",
				obs.F("chunk", cr.index),
				obs.F("jobs_done", jobsDone),
				obs.F("sim_cycles", cr.simCycles))
		}
		r.reportProgress(sh, jobsDone, len(done), resumed, len(done)-resumed, start)
		if r.cfg.CheckpointPath != "" && sinceFlush >= r.cfg.CheckpointEvery && saveErr == nil {
			if saveErr = r.saveCheckpoint(jobs, sh, golden, done); saveErr != nil {
				// Fail fast: a broken checkpoint sink would silently
				// turn the campaign non-resumable, so stop dispatching
				// instead of simulating chunks that can't be persisted.
				cancelRun()
			}
			sinceFlush = 0
		}
	}
	if saveErr != nil {
		return nil, saveErr
	}

	if len(done) < sh.numChunks {
		// Interrupted: flush everything completed so far and bail. The
		// flush is unconditional so a resumable file exists even when
		// the interrupt landed before the first periodic save.
		if r.cfg.CheckpointPath != "" {
			if err := r.saveCheckpoint(jobs, sh, golden, done); err != nil {
				return nil, err
			}
		}
		return nil, fmt.Errorf("%w after %d of %d chunks: %v",
			ErrInterrupted, len(done), sh.numChunks, context.Cause(ctx))
	}
	if r.cfg.CheckpointPath != "" && sinceFlush > 0 {
		if err := r.saveCheckpoint(jobs, sh, golden, done); err != nil {
			return nil, err
		}
	}
	res := r.merge(jobs, run.order, sh, done, resumed)
	res.SimulatedCycles = simCycles
	res.ReplayCycles = replayCycles
	r.log.Info("campaign complete",
		obs.F("jobs", sh.totalJobs),
		obs.F("chunks", sh.numChunks),
		obs.F("resumed", resumed),
		obs.F("sim_cycles", simCycles),
		obs.F("replay_cycles", replayCycles),
		obs.F("elapsed", time.Since(start)))
	return res, nil
}

// campaignRun is the read-only state every pool worker of one RunContext
// or RunChunks call shares: the plan, its chunk geometry and lane-packing
// permutation, the golden trace, the compiled kernel (nil under Naive), the
// engine batch width and the SET effect table (nil for other models).
type campaignRun struct {
	jobs   []Job
	sh     sharding
	order  []int
	golden *sim.Trace
	kern   *sim.Kernel
	// words is the engine batch width in 64-lane words: 1 on the naive
	// interpreter; on the kernel, the first (largest) chunk's group count
	// capped at sim.DefaultKernelWords, so a default chunk runs as one
	// batch and a small campaign evaluates no empty words.
	words int
	fx    map[int64]setEffect
}

// lanes is the number of fault-simulation lanes per engine batch.
func (run *campaignRun) lanes() int { return run.words * sim.Lanes }

// prepare validates the plan and computes everything the pool shares
// except the packing order, which RunContext may only fix after adopting a
// resumed checkpoint's schedule.
func (r *Runner) prepare(jobs []Job) (*campaignRun, error) {
	if err := r.validateJobs(jobs); err != nil {
		return nil, err
	}
	sh, err := newSharding(len(jobs), r.cfg.ChunkJobs)
	if err != nil {
		return nil, err
	}
	golden, err := r.Golden()
	if err != nil {
		return nil, err
	}
	run := &campaignRun{jobs: jobs, sh: sh, golden: golden, words: 1}
	if !r.cfg.Naive {
		r.snapshots()
		if run.kern, err = r.kernel(); err != nil {
			return nil, err
		}
		run.words = max(1, min(sim.DefaultKernelWords, sh.chunkBatches(0)))
	}
	// Model-dependent precomputation. The SET effect table derives from
	// the golden run alone, so every fabric worker computes identical
	// effects for its leased chunks.
	run.fx = r.setEffects(jobs)
	if r.model.Kind == KindMBU {
		r.ffClusters()
	}
	return run, nil
}

// engine names the engine faulty batches run on, the backend label of the
// campaign metrics and logs.
func (r *Runner) engine() string {
	if r.cfg.Naive {
		return "interp"
	}
	return "kernel"
}

// workers is the configured pool size, GOMAXPROCS when unset.
func (r *Runner) workers() int {
	if r.cfg.Workers > 0 {
		return r.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// chunkResult is one simulated chunk: its per-batch failure masks and the
// engine cycles it took.
type chunkResult struct {
	index     int
	masks     []uint64
	simCycles int64
}

// simulate fans the given chunks out across the bounded worker pool and
// streams their results. Dispatch stops once ctx is done; the channel
// closes after every dispatched chunk has been delivered, so a short
// result count means the run was interrupted.
func (r *Runner) simulate(ctx context.Context, run *campaignRun, chunks []int) <-chan chunkResult {
	workers := r.workers()
	if workers > len(chunks) {
		// Zero chunks (fully resumed) means zero workers: the results
		// channel closes immediately.
		workers = len(chunks)
	}
	r.metrics.setLanes(run.lanes())
	feed := make(chan int)
	results := make(chan chunkResult)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := newWorkerState(r, run)
			for ci := range feed {
				chunkStart := time.Now()
				masks, simCycles := r.runChunk(ws, run, ci)
				r.metrics.observeChunk(time.Since(chunkStart))
				results <- chunkResult{index: ci, masks: masks, simCycles: simCycles}
			}
		}()
	}
	go func() {
		defer close(feed)
		for _, ci := range chunks {
			select {
			case <-ctx.Done():
				return
			case feed <- ci:
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()
	return results
}

// merge folds completed chunk masks into the final per-target Result (per
// flip-flop for FF-targeted models, per combinational cell for SET). The
// fold visits chunks in index order and maps every lane back to its job
// through the schedule, so the outcome is independent of completion order,
// schedule and of which chunks came from a checkpoint.
func (r *Runner) merge(jobs []Job, order []int, sh sharding, done map[int][]uint64, resumed int) *Result {
	numTargets := r.model.NumTargets(r.p)
	res := &Result{
		FDR:           make([]float64, numTargets),
		Failures:      make([]int, numTargets),
		Injections:    make([]int, numTargets),
		TotalRuns:     len(jobs),
		Batches:       sh.numBatches(),
		Chunks:        sh.numChunks,
		ResumedChunks: resumed,
	}
	for ci := 0; ci < sh.numChunks; ci++ {
		lo, hi := sh.chunkRange(ci)
		for bi, mask := range done[ci] {
			blo := lo + bi*sim.Lanes
			bhi := blo + sim.Lanes
			if bhi > hi {
				bhi = hi
			}
			for lane, pos := 0, blo; pos < bhi; lane, pos = lane+1, pos+1 {
				job := jobs[jobIndex(order, pos)]
				res.Injections[job.FF]++
				if mask>>uint(lane)&1 == 1 {
					res.Failures[job.FF]++
				}
			}
		}
	}
	for ff := range res.FDR {
		if res.Injections[ff] > 0 {
			res.FDR[ff] = float64(res.Failures[ff]) / float64(res.Injections[ff])
		}
	}
	return res
}

func (r *Runner) reportProgress(sh sharding, jobsDone, chunksDone, resumed, computed int, start time.Time) {
	if r.cfg.OnProgress == nil {
		return
	}
	p := Progress{
		JobsDone:      jobsDone,
		JobsTotal:     sh.totalJobs,
		ChunksDone:    chunksDone,
		ChunksTotal:   sh.numChunks,
		ChunksResumed: resumed,
		Elapsed:       time.Since(start),
	}
	if computed > 0 && chunksDone < sh.numChunks {
		perChunk := p.Elapsed / time.Duration(computed)
		p.ETA = perChunk * time.Duration(sh.numChunks-chunksDone)
	}
	r.cfg.OnProgress(p)
}

// classifierFingerprint digests the failure criterion when the classifier
// identifies itself; 0 otherwise.
func (r *Runner) classifierFingerprint() uint64 {
	if cf, ok := r.cls.(ConfigFingerprinter); ok {
		return cf.ConfigFingerprint()
	}
	return 0
}

// matchCheckpoint verifies that a loaded checkpoint belongs to exactly this
// campaign: same plan, same golden trace, same failure criterion, same
// fault model, same shard geometry, same batch-packing schedule.
func (r *Runner) matchCheckpoint(ck *Checkpoint, jobs []Job, sh sharding, golden *sim.Trace) error {
	if ck.PlanHash != PlanFingerprint(jobs) {
		return fmt.Errorf("%w: plan fingerprint differs (checkpoint %x)", ErrCheckpointMismatch, ck.PlanHash)
	}
	if got := normalizeCheckpointModel(ck.Model); got != r.model.String() {
		// Masks depend on what each job injected, so models must agree. ""
		// marks files from before fault models existed, which were all SEU.
		return fmt.Errorf("%w: fault model differs (checkpoint %q, campaign %q)",
			ErrCheckpointMismatch, got, r.model)
	}
	if ck.GoldenHash != golden.Fingerprint() {
		return fmt.Errorf("%w: golden trace fingerprint differs (checkpoint %x)", ErrCheckpointMismatch, ck.GoldenHash)
	}
	if ck.ClassifierHash != r.classifierFingerprint() {
		return fmt.Errorf("%w: failure-criterion fingerprint differs (checkpoint %x)", ErrCheckpointMismatch, ck.ClassifierHash)
	}
	if got := normalizeCheckpointSchedule(ck.Schedule); got != r.schedule {
		// Masks are packed per schedule, so the two must agree. When the
		// caller expressed no preference (the zero-value default), adopt
		// the checkpoint's schedule instead of rejecting — this is what
		// keeps plan-order checkpoints from before schedules existed
		// resumable on a default-configured runner.
		if r.scheduleSet || !got.valid() {
			return fmt.Errorf("%w: schedule differs (checkpoint %q, campaign %q — masks are packed per schedule)",
				ErrCheckpointMismatch, got, r.schedule)
		}
		r.schedule = got
	}
	if ck.TotalJobs != sh.totalJobs || ck.ChunkJobs != sh.chunkJobs || ck.NumChunks != sh.numChunks {
		return fmt.Errorf("%w: shard geometry differs (checkpoint %d jobs in %d chunks of %d, campaign %d/%d/%d)",
			ErrCheckpointMismatch, ck.TotalJobs, ck.NumChunks, ck.ChunkJobs,
			sh.totalJobs, sh.numChunks, sh.chunkJobs)
	}
	return nil
}

func (r *Runner) saveCheckpoint(jobs []Job, sh sharding, golden *sim.Trace, done map[int][]uint64) error {
	saveStart := time.Now()
	err := SaveCheckpoint(r.cfg.CheckpointPath, &Checkpoint{
		PlanHash:       PlanFingerprint(jobs),
		GoldenHash:     golden.Fingerprint(),
		ClassifierHash: r.classifierFingerprint(),
		Schedule:       string(r.schedule),
		Model:          r.model.String(),
		TotalJobs:      sh.totalJobs,
		ChunkJobs:      sh.chunkJobs,
		NumChunks:      sh.numChunks,
		Chunks:         done,
	})
	elapsed := time.Since(saveStart)
	r.metrics.observeCheckpoint(elapsed)
	if err != nil {
		r.log.Error("checkpoint save failed",
			obs.F("path", r.cfg.CheckpointPath), obs.F("error", err))
	} else if r.log.Enabled(obs.LevelDebug) {
		r.log.Debug("checkpoint saved",
			obs.F("path", r.cfg.CheckpointPath),
			obs.F("chunks", len(done)),
			obs.F("elapsed", elapsed))
	}
	return err
}

// sharding is the deterministic chunk geometry of a plan: totalJobs jobs in
// numChunks chunks of chunkJobs jobs each (the last possibly short), every
// chunk a whole number of 64-lane batches.
type sharding struct {
	totalJobs int
	chunkJobs int
	numChunks int
}

func newSharding(totalJobs, chunkJobs int) (sharding, error) {
	if totalJobs < 0 {
		return sharding{}, fmt.Errorf("fault: negative job count %d", totalJobs)
	}
	if chunkJobs <= 0 {
		chunkJobs = DefaultChunkJobs
	}
	// Round up to whole batches so chunk boundaries never split a batch.
	chunkJobs = (chunkJobs + sim.Lanes - 1) / sim.Lanes * sim.Lanes
	return sharding{
		totalJobs: totalJobs,
		chunkJobs: chunkJobs,
		numChunks: (totalJobs + chunkJobs - 1) / chunkJobs,
	}, nil
}

// chunkRange returns the half-open job interval of chunk ci.
func (s sharding) chunkRange(ci int) (lo, hi int) {
	lo = ci * s.chunkJobs
	hi = lo + s.chunkJobs
	if hi > s.totalJobs {
		hi = s.totalJobs
	}
	return lo, hi
}

// chunkBatches returns the number of 64-lane batches in chunk ci.
func (s sharding) chunkBatches(ci int) int {
	lo, hi := s.chunkRange(ci)
	return (hi - lo + sim.Lanes - 1) / sim.Lanes
}

// numBatches returns the total number of 64-lane batches across all chunks.
func (s sharding) numBatches() int {
	return (s.totalJobs + sim.Lanes - 1) / sim.Lanes
}
