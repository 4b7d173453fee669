package fault

import (
	"time"

	"repro/internal/obs"
)

// Early-exit reasons of the incremental batch path, the label values of
// ffr_campaign_early_exits_total.
const (
	// exitAllFailed: every undecided lane was confirmed failed by the
	// streaming classifier.
	exitAllFailed = "all_failed"
	// exitAllSettled: every undecided lane re-converged to golden state.
	exitAllSettled = "all_settled"
	// exitMixed: the batch stopped on a mix of failed and settled lanes.
	exitMixed = "mixed"
	// exitWindowEnd: the batch ran to the end of the stimulus window (no
	// early exit).
	exitWindowEnd = "window_end"
)

// campaignMetrics is the campaign engine's observability surface
// (ffr_campaign_*). A nil *campaignMetrics is a valid no-op, so the hot
// simulation path pays one pointer check when telemetry is off.
type campaignMetrics struct {
	chunksCompleted *obs.Counter
	chunkSeconds    *obs.Histogram
	batches         *obs.Counter
	simCycles       *obs.Counter
	replayCycles    *obs.Counter
	ffHits          *obs.Counter
	ffCycles        *obs.Counter
	earlyExits      *obs.CounterVec
	ckSeconds       *obs.Histogram
	jobsDone        *obs.Gauge
	jobsTotal       *obs.Gauge
	lanesPerBatch   *obs.Gauge
}

// newCampaignMetrics precomputes the backend-labeled children for the
// runner's engine ("kernel", or "interp" under Naive), so the hot path
// observes plain metrics.
func newCampaignMetrics(reg *obs.Registry, backend string) *campaignMetrics {
	return &campaignMetrics{
		chunksCompleted: reg.Counter("ffr_campaign_chunks_completed_total",
			"shard chunks simulated and merged (excludes chunks restored from a checkpoint)"),
		chunkSeconds: reg.HistogramVec("ffr_campaign_chunk_seconds",
			"per-chunk simulation wall time in seconds by simulation backend",
			obs.DefBuckets, "backend").With(backend),
		batches: reg.Counter("ffr_campaign_batches_total",
			"64-lane batches simulated"),
		simCycles: reg.Counter("ffr_campaign_simulated_cycles_total",
			"engine cycles actually simulated"),
		replayCycles: reg.Counter("ffr_campaign_replay_cycles_total",
			"engine cycles a naive full-replay campaign would have simulated"),
		ffHits: reg.Counter("ffr_campaign_fastforward_hits_total",
			"batches whose golden-state snapshot fast-forward skipped a non-empty prefix"),
		ffCycles: reg.Counter("ffr_campaign_fastforward_cycles_total",
			"engine cycles skipped by golden-state snapshot fast-forward"),
		earlyExits: reg.CounterVec("ffr_campaign_early_exits_total",
			"incremental batches by how their simulation window ended", "reason"),
		ckSeconds: reg.Histogram("ffr_campaign_checkpoint_seconds",
			"checkpoint save latency in seconds", obs.DefBuckets),
		jobsDone: reg.Gauge("ffr_campaign_jobs_done",
			"injection jobs completed (including jobs restored from a checkpoint)"),
		jobsTotal: reg.Gauge("ffr_campaign_jobs_total",
			"injection jobs in the campaign plan"),
		lanesPerBatch: reg.Gauge("ffr_campaign_lanes_per_batch",
			"independent fault-simulation lanes per engine batch (64 on the interpreter; on the kernel, 64 per chunk group up to the sim.DefaultKernelWords cap)"),
	}
}

func (m *campaignMetrics) startCampaign(jobsDone, jobsTotal int) {
	if m == nil {
		return
	}
	m.jobsDone.Set(float64(jobsDone))
	m.jobsTotal.Set(float64(jobsTotal))
}

func (m *campaignMetrics) setLanes(lanes int) {
	if m == nil {
		return
	}
	m.lanesPerBatch.Set(float64(lanes))
}

func (m *campaignMetrics) observeChunk(elapsed time.Duration) {
	if m == nil {
		return
	}
	m.chunksCompleted.Inc()
	m.chunkSeconds.Observe(elapsed.Seconds())
}

func (m *campaignMetrics) mergeChunk(jobsDone int, simCycles, replayCycles int64) {
	if m == nil {
		return
	}
	m.jobsDone.Set(float64(jobsDone))
	m.simCycles.Add(float64(simCycles))
	m.replayCycles.Add(float64(replayCycles))
}

// observeBatch records one 64-lane group of an incremental kernel batch: the fast-forwarded prefix
// [0, start) and how the simulation window ended at stop of total cycles.
func (m *campaignMetrics) observeBatch(start, stop, cycles int, used, failed, settled uint64) {
	if m == nil {
		return
	}
	m.batches.Inc()
	if start > 0 {
		m.ffHits.Inc()
		m.ffCycles.Add(float64(start))
	}
	reason := exitWindowEnd
	if stop < cycles {
		switch {
		case used&^failed == 0:
			reason = exitAllFailed
		case used&^settled == 0:
			reason = exitAllSettled
		default:
			reason = exitMixed
		}
	}
	m.earlyExits.With(reason).Inc()
}

func (m *campaignMetrics) observeNaiveBatch() {
	if m == nil {
		return
	}
	m.batches.Inc()
	m.earlyExits.With(exitWindowEnd).Inc()
}

func (m *campaignMetrics) observeCheckpoint(elapsed time.Duration) {
	if m == nil {
		return
	}
	m.ckSeconds.Observe(elapsed.Seconds())
}
