package fault

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/sim"
)

// batch.go is the per-worker batch path. A chunk is simulated as batches of
// W consecutive 64-lane groups: W = sim.DefaultKernelWords on the compiled
// kernel, the production engine, and W = 1 on the naive interpreter
// reference. Group g of a batch covers exactly the jobs of the chunk's
// 64-lane batch wb+g, in the same scheduled order, and emits its failure
// mask at the same position of the chunk's mask slice — so chunk masks,
// checkpoints and merged results do not depend on the engine, and batches
// never cross chunk boundaries.
//
// Early exit runs per group over the shared window: a kernel batch stops
// once EVERY group's lanes are decided (confirmed failed or settled back to
// golden). Groups that decide early keep simulating until the last
// straggler, which is sound because settled lanes evolve identically to
// golden (their recorded rows equal the golden fill) and stream-confirmed
// failures are final regardless of the trace suffix — the per-group
// classification below is post hoc over the reconstructed trace, exactly
// like the naive path.

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

// sortFlips orders the flip schedule by cycle. Batches are small and
// already sorted under the clustered schedule, so insertion sort beats the
// allocation and indirection of sort.Slice here.
func sortFlips(flips []flipOp) {
	for i := 1; i < len(flips); i++ {
		f := flips[i]
		j := i - 1
		for j >= 0 && flips[j].cycle > f.cycle {
			flips[j+1] = flips[j]
			j--
		}
		flips[j+1] = f
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
// the event schedule, and per batch word the faulty-trace buffer, SET
// glitches, stream and lane bookkeeping — recycled across batches so the
// hot loop allocates nothing per batch.
type workerState struct {
	ke *sim.KernelEngine // the kernel path; nil under Naive
	e  *sim.Engine       // the naive path; nil otherwise

	traces   []*sim.Trace
	flips    []flipOp
	glitches [][]laneGlitch
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
	W := 1
	ws := &workerState{fx: run.fx}
	if run.kern != nil {
		W = sim.DefaultKernelWords
		ws.ke = sim.NewKernelEngine(run.kern, W)
		ws.traces = make([]*sim.Trace, W)
		for i := range ws.traces {
			ws.traces[i] = sim.NewTrace(r.monitors, r.stim.Cycles())
		}
	} else {
		ws.e = sim.NewEngine(r.p)
	}
	ws.flips = make([]flipOp, 0, W*sim.Lanes)
	ws.glitches = make([][]laneGlitch, W)
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
// worker's cycle-sorted event schedule, per-word glitches and lane masks.
func (r *Runner) loadBatch(ws *workerState, run *campaignRun, blo, hi, groups int) {
	ws.flips = ws.flips[:0]
	for g := 0; g < groups; g++ {
		ws.used[g], ws.failed[g], ws.settled[g] = 0, 0, 0
		ws.glitches[g] = ws.glitches[g][:0]
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
			ws.glitches[g] = r.appendGlitches(ws.glitches[g], ws.fx, job, laneMask)
			ws.used[g] |= laneMask
		}
		// Eventless lanes are never pending: their state is golden forever.
		ws.pending[g] = ws.used[g] &^ eventless
		blo = bhi
	}
	sortFlips(ws.flips)
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
	for i := range ws.glitches[0] {
		g := &ws.glitches[0][i]
		faulty.XORWord(g.cycle, g.mon, g.mask)
	}
	r.metrics.observeNaiveBatch()
	return append(masks, r.cls.FailingLanes(golden, faulty, ws.used[0])), r.stim.Cycles()
}

// runBatchKernel simulates one loaded batch of `groups` 64-lane groups on
// the kernel: it fast-forwards to the golden snapshot at or before the
// batch's earliest event, simulates forward recording into the per-word
// traces, stops as soon as every used lane's verdict is decided, fills the
// skipped prefix and suffix from the golden trace (both provably identical
// to it) and classifies each group's reconstructed trace exactly like the
// naive path. It appends one failure mask per group and returns the window
// length simulated.
func (r *Runner) runBatchKernel(ws *workerState, golden *sim.Trace, groups int, masks []uint64) ([]uint64, int) {
	snaps := r.snaps
	used := ws.used[:groups]
	pending := ws.pending[:groups]
	failed := ws.failed[:groups]
	settled := ws.settled[:groups]

	// A batch with no events at all (possible under SET) needs no
	// simulation: every group's trace is the golden trace plus glitches.
	var start, stop int
	if len(ws.flips) > 0 {
		minCycle := ws.flips[0].cycle
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

		ptr := 0
		stop = sim.RunWindow(ws.ke, r.stim, snaps, minCycle, sim.WindowConfig{
			Monitors: r.monitors,
			Traces:   ws.traces[:groups],
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
				if !isStream {
					return false
				}
				// Confirmed failures are final, and settlement is sticky
				// (a settled lane evolves identically to golden forever),
				// so the batch can stop the very cycle the last straggler
				// confirms instead of waiting for the next snapshot
				// boundary.
				gr := golden.Row(c)
				for g := 0; g < groups; g++ {
					failed[g] = streams[g].Observe(c, gr, ws.traces[g].Row(c))
				}
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
	for g := 0; g < groups; g++ {
		tr := ws.traces[g]
		tr.CopyCycles(golden, 0, start)
		tr.CopyCycles(golden, stop, r.stim.Cycles())
		for i := range ws.glitches[g] {
			gl := &ws.glitches[g][i]
			tr.XORWord(gl.cycle, gl.mon, gl.mask)
		}
		r.metrics.observeBatch(start, stop, r.stim.Cycles(), used[g], failed[g], settled[g])
		masks = append(masks, r.cls.FailingLanes(golden, tr, used[g]))
	}
	return masks, stop - start
}
