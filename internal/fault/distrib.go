package fault

import (
	"context"
	"fmt"
	"sort"
)

// Distributed-campaign support: the coordinator/worker fabric
// (internal/fabric) splits a plan along the same deterministic chunk
// geometry a single-node Runner uses, leases chunks to remote workers, and
// merges their per-chunk failure masks back into the exact checkpoint
// format and Result a single-node run would have produced. Everything here
// is a re-exposure of existing Runner internals at chunk granularity —
// no new simulation semantics, so the bit-identical guarantees of the
// equivalence suite carry over.

// Shards is the exported deterministic chunk geometry of a plan: the same
// splitting RunContext applies internally, shared with remote coordinators
// so every node agrees which jobs chunk ci covers.
type Shards struct {
	s sharding
}

// PlanShards computes the chunk geometry for a plan of totalJobs jobs with
// the given chunk size (0 means DefaultChunkJobs; rounded up to whole
// 64-lane batches).
func PlanShards(totalJobs, chunkJobs int) (Shards, error) {
	sh, err := newSharding(totalJobs, chunkJobs)
	return Shards{s: sh}, err
}

// TotalJobs is the plan length.
func (s Shards) TotalJobs() int { return s.s.totalJobs }

// ChunkJobs is the chunk size in jobs (a whole number of 64-lane batches).
func (s Shards) ChunkJobs() int { return s.s.chunkJobs }

// NumChunks is the total chunk count.
func (s Shards) NumChunks() int { return s.s.numChunks }

// ChunkRange returns the half-open job interval of chunk ci.
func (s Shards) ChunkRange(ci int) (lo, hi int) { return s.s.chunkRange(ci) }

// ChunkBatches returns the number of 64-lane batches in chunk ci — the
// expected failure-mask count of a completed chunk.
func (s Shards) ChunkBatches(ci int) int { return s.s.chunkBatches(ci) }

// Schedule returns the batch-packing schedule the runner's masks are
// recorded under (the resolved default when the config left it empty).
func (r *Runner) Schedule() Schedule { return r.schedule }

// ChunkJobs returns the runner's resolved chunk size.
func (r *Runner) ChunkJobs() int {
	sh, _ := newSharding(0, r.cfg.ChunkJobs)
	return sh.chunkJobs
}

// validateJobs bounds-checks a plan against the program, stimulus and fault
// model (which defines the target index space — flip-flops, or combinational
// cells for SET).
func (r *Runner) validateJobs(jobs []Job) error {
	numTargets := r.model.NumTargets(r.p)
	noun := "FF"
	if !r.model.TargetsFFs() {
		noun = "comb target"
	}
	for _, j := range jobs {
		if j.FF < 0 || j.FF >= numTargets {
			return fmt.Errorf("fault: job targets %s %d of %d", noun, j.FF, numTargets)
		}
		if j.Cycle < 0 || j.Cycle >= r.stim.Cycles() {
			return fmt.Errorf("fault: job at cycle %d of %d", j.Cycle, r.stim.Cycles())
		}
	}
	return nil
}

// RunChunks simulates exactly the given shard chunks of the plan and
// returns their per-batch failure masks, keyed by chunk index — the unit
// of work a fabric worker executes under one lease. It runs the chunks
// through the same worker pool, engine and batch path as RunContext, so
// the masks are bit-identical to what a full single-node Run would record
// for the same chunks.
//
// On context cancellation the chunks already finished are returned
// alongside an error wrapping ErrInterrupted, so callers can still report
// completed work before abandoning the lease.
func (r *Runner) RunChunks(ctx context.Context, jobs []Job, chunkIdx []int) (map[int][]uint64, error) {
	run, err := r.prepare(jobs)
	if err != nil {
		return nil, err
	}
	seen := make(map[int]bool, len(chunkIdx))
	for _, ci := range chunkIdx {
		if ci < 0 || ci >= run.sh.numChunks {
			return nil, fmt.Errorf("fault: chunk %d of %d", ci, run.sh.numChunks)
		}
		if seen[ci] {
			return nil, fmt.Errorf("fault: chunk %d requested twice", ci)
		}
		seen[ci] = true
	}
	if run.order, err = scheduleOrder(jobs, r.schedule); err != nil {
		return nil, err
	}
	done := make(map[int][]uint64, len(chunkIdx))
	for cr := range r.simulate(ctx, run, chunkIdx) {
		done[cr.index] = cr.masks
	}
	if len(done) < len(chunkIdx) {
		return done, fmt.Errorf("%w after %d of %d chunks: %v",
			ErrInterrupted, len(done), len(chunkIdx), context.Cause(ctx))
	}
	return done, nil
}

// MergeChunks folds a complete set of per-chunk failure masks — every
// chunk of the plan, e.g. gathered from distributed workers — into the
// final campaign Result, exactly as a single-node Run would have. The fold
// is order-independent, so it does not matter which worker produced which
// chunk or in what order they arrived.
func (r *Runner) MergeChunks(jobs []Job, done map[int][]uint64) (*Result, error) {
	if err := r.validateJobs(jobs); err != nil {
		return nil, err
	}
	sh, err := newSharding(len(jobs), r.cfg.ChunkJobs)
	if err != nil {
		return nil, err
	}
	if len(done) != sh.numChunks {
		return nil, fmt.Errorf("fault: merging %d of %d chunks", len(done), sh.numChunks)
	}
	for ci, masks := range done {
		if ci < 0 || ci >= sh.numChunks {
			return nil, fmt.Errorf("fault: merging unknown chunk %d of %d", ci, sh.numChunks)
		}
		if len(masks) != sh.chunkBatches(ci) {
			return nil, fmt.Errorf("fault: chunk %d carries %d batch masks, want %d",
				ci, len(masks), sh.chunkBatches(ci))
		}
	}
	order, err := scheduleOrder(jobs, r.schedule)
	if err != nil {
		return nil, err
	}
	return r.merge(jobs, order, sh, done, 0), nil
}

// CampaignCheckpoint assembles the versioned checkpoint a campaign with
// the given completed chunks would persist — the coordinator writes merged
// worker results through this, so distributed checkpoints are loadable by
// every existing single-node consumer and fingerprint-comparable against
// single-node runs.
func (r *Runner) CampaignCheckpoint(jobs []Job, done map[int][]uint64) (*Checkpoint, error) {
	golden, err := r.Golden()
	if err != nil {
		return nil, err
	}
	sh, err := newSharding(len(jobs), r.cfg.ChunkJobs)
	if err != nil {
		return nil, err
	}
	return &Checkpoint{
		PlanHash:       PlanFingerprint(jobs),
		GoldenHash:     golden.Fingerprint(),
		ClassifierHash: r.classifierFingerprint(),
		Schedule:       string(r.schedule),
		Model:          r.model.String(),
		TotalJobs:      sh.totalJobs,
		ChunkJobs:      sh.chunkJobs,
		NumChunks:      sh.numChunks,
		Chunks:         done,
	}, nil
}

// sortedChunkIndices returns the completed chunk indices in ascending
// order, for canonical iteration.
func sortedChunkIndices(chunks map[int][]uint64) []int {
	idx := make([]int, 0, len(chunks))
	for ci := range chunks {
		idx = append(idx, ci)
	}
	sort.Ints(idx)
	return idx
}
