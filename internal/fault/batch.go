package fault

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/sim"
)

// batch.go is the per-worker batch path. A chunk is simulated as batches of
// W consecutive 64-lane groups: on the compiled kernel, the production
// engine, W is the chunk's group count capped at sim.DefaultKernelWords —
// a default chunk is one batch, so its straggler tail is simulated once —
// and on the naive interpreter reference W = 1. Group g of a batch covers
// exactly the jobs of the chunk's 64-lane batch wb+g, in the same scheduled
// order, and emits its failure mask at the same position of the chunk's
// mask slice — so chunk masks, checkpoints and merged results do not
// depend on the engine or the width, and batches never cross chunk
// boundaries.
//
// Early exit runs per group over the shared window: a kernel batch stops
// once EVERY group's lanes are decided (confirmed failed or settled back to
// golden). Groups that decide early keep simulating until the last
// straggler. The batch keeps no full traces: each cycle it records only the
// monitor words where a lane not yet confirmed failed differs from golden,
// as XOR patches. That is sound because settled lanes evolve identically to
// golden and stream-confirmed failures are final regardless of the trace
// suffix. After the window every group is rebuilt as golden plus its
// patches plus its SET glitches and classified post hoc over that trace,
// exactly like the naive path.

// flipOp is one scheduled engine event of a batch: apply kind to ff in the
// lanes of mask within batch word `word` at the given cycle. fin marks the
// lanes' final event (see modelexec.go); under the SEU reference model
// every job is exactly one effFlip with fin set.
type flipOp struct {
	cycle int
	ff    int
	word  int
	mask  uint64
	kind  effKind
	fin   bool
}

// tracePatch toggles monitor mon's sample at the given cycle in the lanes
// of mask within batch word `word`. SET output glitches are patches, and so
// is every recorded difference of a kernel batch's simulated rows from
// golden. The fields are packed into 16 bytes because a batch may record
// thousands of differences (NewRunner bounds the monitor count to fit).
type tracePatch struct {
	cycle int32
	mon   uint16
	word  uint16
	mask  uint64
}

// applyPatches XORs the patches of batch word `word` into a trace.
func applyPatches(tr *sim.Trace, patches []tracePatch, word int) {
	for i := range patches {
		if p := &patches[i]; int(p.word) == word {
			tr.XORWord(int(p.cycle), int(p.mon), p.mask)
		}
	}
}

// kernelCache memoizes compiled kernels process-wide, keyed by program
// identity and the kept-port signature. Studies build an ephemeral Runner
// per partial campaign over the same program; without the cache every one
// of those would re-run the compiler pipeline. Kernels are immutable after
// BuildKernel (all mutable state lives in KernelEngine), so sharing across
// runners and goroutines is safe. Entries live until process exit, bounded
// by the number of distinct (program, monitor-set) pairs.
var kernelCache sync.Map // kernelKey -> *kernelEntry

type kernelKey struct {
	p     *sim.Program
	ports string
}

type kernelEntry struct {
	once sync.Once
	k    *sim.Kernel
	err  error
}

// kernel compiles the program once per (program, observed ports), keeping
// exactly the output ports the campaign observes: the monitored ports and
// every loopback source (the stimulus reads those back each cycle).
// Everything else is dead fanout to the campaign and is pruned.
func (r *Runner) kernel() (*sim.Kernel, error) {
	r.kernOnce.Do(func() {
		keep := make(map[int]bool, len(r.monitors))
		for _, m := range r.monitors {
			keep[m] = true
		}
		for _, lb := range r.stim.Loopbacks() {
			keep[lb.Out] = true
		}
		ports := make([]int, 0, len(keep))
		for p := range keep {
			ports = append(ports, p)
		}
		sort.Ints(ports)
		key := kernelKey{p: r.p, ports: fmt.Sprint(ports)}
		ent, _ := kernelCache.LoadOrStore(key, &kernelEntry{})
		e := ent.(*kernelEntry)
		e.once.Do(func() {
			e.k, e.err = sim.BuildKernel(r.p, sim.KernelConfig{KeepOutputs: ports})
		})
		r.kern, r.kernErr = e.k, e.err
	})
	return r.kern, r.kernErr
}

// workerState is one pool worker's reusable simulation state — its engine,
// the batch's events, SET glitches and recorded differences, and per batch
// word the monitor row, stream and lane bookkeeping — recycled across
// batches.
type workerState struct {
	ke *sim.KernelEngine // the kernel path; nil under Naive
	e  *sim.Engine       // the naive path; nil otherwise

	// rows receives each simulated cycle's monitor words per batch word,
	// diffs the batch's recorded differences from golden, and trace is the
	// scratch every group is rebuilt in for classification (kernel only).
	rows  [][]uint64
	diffs []tracePatch
	trace *sim.Trace

	flips    []flipOp
	glitches []tracePatch // cycle-sorted
	streams  []Stream
	used     []uint64
	pending  []uint64
	failed   []uint64
	settled  []uint64
	// fx is the read-only SET effect table of the current plan; nil for
	// other models.
	fx map[int64]setEffect
}

func newWorkerState(r *Runner, run *campaignRun) *workerState {
	W := run.words
	ws := &workerState{fx: run.fx}
	if run.kern != nil {
		ws.ke = sim.NewKernelEngine(run.kern, W)
		ws.rows = make([][]uint64, W)
		for g := range ws.rows {
			ws.rows[g] = make([]uint64, len(r.monitors))
		}
		ws.trace = sim.NewTrace(r.monitors, r.stim.Cycles())
	} else {
		ws.e = sim.NewEngine(r.p)
	}
	ws.flips = make([]flipOp, 0, W*sim.Lanes)
	ws.streams = make([]Stream, W)
	ws.used = make([]uint64, W)
	ws.pending = make([]uint64, W)
	ws.failed = make([]uint64, W)
	ws.settled = make([]uint64, W)
	return ws
}

// runChunk simulates chunk ci and returns its per-64-lane-batch failure
// masks plus the number of engine cycles simulated. The window is counted
// once per kernel batch — each additional word rides the same
// combinational passes — so the simulated-cycle totals reflect the
// widening win.
func (r *Runner) runChunk(ws *workerState, run *campaignRun, ci int) ([]uint64, int64) {
	lo, hi := run.sh.chunkRange(ci)
	nb := run.sh.chunkBatches(ci)
	masks := make([]uint64, 0, nb)
	var simCycles int64
	W := len(ws.used)
	for wb := 0; wb < nb; wb += W {
		groups := min(W, nb-wb)
		r.loadBatch(ws, run, lo+wb*sim.Lanes, hi, groups)
		var cycles int
		if ws.ke != nil {
			masks, cycles = r.runBatchKernel(ws, run.golden, groups, masks)
		} else {
			masks, cycles = r.runBatchNaive(ws, run.golden, masks)
		}
		simCycles += int64(cycles)
	}
	return masks, simCycles
}

// loadBatch expands the jobs of `groups` consecutive 64-lane groups,
// starting at scheduled position blo and ending no later than hi, into the
// worker's cycle-sorted event schedule and glitches and its lane masks.
func (r *Runner) loadBatch(ws *workerState, run *campaignRun, blo, hi, groups int) {
	ws.flips = ws.flips[:0]
	ws.glitches = ws.glitches[:0]
	for g := 0; g < groups; g++ {
		ws.used[g], ws.failed[g], ws.settled[g] = 0, 0, 0
		bhi := min(blo+sim.Lanes, hi)
		var eventless uint64
		for lane, pos := 0, blo; pos < bhi; lane, pos = lane+1, pos+1 {
			job := run.jobs[jobIndex(run.order, pos)]
			laneMask := uint64(1) << uint(lane)
			n := len(ws.flips)
			ws.flips = r.expandJob(ws.flips, ws.fx, job, g, laneMask)
			if len(ws.flips) == n {
				eventless |= laneMask
			}
			ws.glitches = r.appendGlitches(ws.glitches, ws.fx, job, g, laneMask)
			ws.used[g] |= laneMask
		}
		// Eventless lanes are never pending: their state is golden forever.
		ws.pending[g] = ws.used[g] &^ eventless
		blo = bhi
	}
	slices.SortStableFunc(ws.flips, func(a, b flipOp) int { return cmp.Compare(a.cycle, b.cycle) })
	slices.SortStableFunc(ws.glitches, func(a, b tracePatch) int { return cmp.Compare(a.cycle, b.cycle) })
}

// runBatchNaive is the reference path: one 64-lane group replayed from
// cycle 0 on the interpreter and classified post hoc over the complete
// faulty trace.
func (r *Runner) runBatchNaive(ws *workerState, golden *sim.Trace, masks []uint64) ([]uint64, int) {
	ptr := 0
	faulty, _ := sim.Run(ws.e, r.stim, sim.RunConfig{
		Monitors: r.monitors,
		PreEval: func(c int) {
			for ptr < len(ws.flips) && ws.flips[ptr].cycle == c {
				applyOp(ws.e, &ws.flips[ptr])
				ptr++
			}
		},
	})
	applyPatches(faulty, ws.glitches, 0)
	r.metrics.observeNaiveBatch()
	return append(masks, r.cls.FailingLanes(golden, faulty, ws.used[0])), r.stim.Cycles()
}

// runBatchKernel simulates one loaded batch of `groups` 64-lane groups on
// the kernel: it fast-forwards to the golden snapshot at or before the
// batch's earliest event, simulates forward recording each group's
// differences from golden, stops as soon as every used lane's verdict is
// decided, rebuilds each group's trace as golden plus its differences plus
// its SET glitches — the skipped prefix and suffix are provably identical
// to golden — and classifies it exactly like the naive path. It appends
// one failure mask per group and returns the window length simulated.
func (r *Runner) runBatchKernel(ws *workerState, golden *sim.Trace, groups int, masks []uint64) ([]uint64, int) {
	snaps := r.snaps
	used := ws.used[:groups]
	pending := ws.pending[:groups]
	failed := ws.failed[:groups]
	settled := ws.settled[:groups]
	ws.diffs = ws.diffs[:0]

	// A batch with no events at all (possible under SET) needs no
	// simulation: every group's trace is the golden trace plus glitches.
	var start, stop int
	if len(ws.flips) > 0 {
		// The window starts no later than the first glitch either:
		// StartStream requires every cycle before the window to be golden.
		minCycle := ws.flips[0].cycle
		if len(ws.glitches) > 0 {
			minCycle = min(minCycle, int(ws.glitches[0].cycle))
		}
		start = snaps.SnapCycle(snaps.IndexAtOrBefore(minCycle))

		streams := ws.streams[:groups]
		sc, isStream := r.cls.(StreamClassifier)
		for g := range streams {
			if isStream {
				streams[g] = sc.StartStream(golden, used[g], start)
			} else {
				streams[g] = nil
			}
		}
		undecided := func() bool {
			for g := 0; g < groups; g++ {
				if used[g]&^(settled[g]|failed[g]) != 0 {
					return true
				}
			}
			return false
		}

		ptr, next := 0, 0 // first flip not yet applied, first glitch not yet observed
		rows := ws.rows[:groups]
		stop = sim.RunWindow(ws.ke, r.stim, snaps, minCycle, sim.WindowConfig{
			Monitors: r.monitors,
			Rows:     rows,
			PreEval: func(c int) {
				for ptr < len(ws.flips) && ws.flips[ptr].cycle == c {
					f := &ws.flips[ptr]
					applyKernelOp(ws.ke, f)
					if f.fin {
						pending[f.word] &^= f.mask
					}
					ptr++
				}
			},
			OnCycle: func(c int) bool {
				gr := golden.Row(c)
				for g, row := range rows {
					// Lanes confirmed failed before this cycle need no more
					// differences: their verdict is final whatever the rest
					// of their trace is.
					live := used[g] &^ failed[g]
					for m, w := range row {
						if d := (w ^ gr[m]) & live; d != 0 {
							ws.diffs = append(ws.diffs, tracePatch{
								cycle: int32(c), mon: uint16(m), word: uint16(g), mask: d,
							})
						}
					}
				}
				if !isStream {
					return false
				}
				// The streams must observe exactly the rows they will be
				// judged on, SET glitches included.
				for ; next < len(ws.glitches) && int(ws.glitches[next].cycle) == c; next++ {
					gl := &ws.glitches[next]
					rows[gl.word][gl.mon] ^= gl.mask
				}
				for g, row := range rows {
					failed[g] = streams[g].Observe(c, gr, row)
				}
				// Confirmed failures are final, and settlement is sticky
				// (a settled lane evolves identically to golden forever),
				// so the batch can stop the very cycle the last straggler
				// confirms instead of waiting for the next snapshot
				// boundary.
				return !undecided()
			},
			OnSnapshot: func(c int, diverged []uint64) bool {
				// Settled lanes have fully re-converged to golden state
				// with no event still pending: their remaining trace is
				// the golden trace, so their verdict is decided too.
				for g := 0; g < groups; g++ {
					settled[g] = used[g] &^ diverged[g] &^ pending[g]
				}
				return !undecided()
			},
		})
	}
	tr := ws.trace
	for g := 0; g < groups; g++ {
		tr.CopyCycles(golden, 0, r.stim.Cycles())
		applyPatches(tr, ws.diffs, g)
		applyPatches(tr, ws.glitches, g)
		r.metrics.observeBatch(start, stop, r.stim.Cycles(), used[g], failed[g], settled[g])
		masks = append(masks, r.cls.FailingLanes(golden, tr, used[g]))
	}
	return masks, stop - start
}
