package sim

import "fmt"

// DefaultSnapshotEvery is the default golden snapshot cadence in cycles.
// Finer cadences waste less prefix on restore (a faulty batch fast-forwards
// to the snapshot at or before its earliest injection) and give early-exit
// checks more chances to fire; coarser cadences shrink capture cost and the
// per-boundary state-comparison work. At 8 the comparison overhead is a few
// percent of engine evaluation while the average fast-forward rounding loss
// stays under 4 cycles per batch.
const DefaultSnapshotEvery = 8

// Snapshots is a set of periodic golden engine-state restore points captured
// during the (lane-uniform) golden run: for every cycle c ≡ 0 (mod every)
// the per-flip-flop state bits and the loopback words at the top of cycle c
// — the complete inter-cycle state of an engine, since every other net is
// recomputed from flip-flop state and primary inputs by Eval.
//
// Because the golden run drives identical stimulus into all lanes, the
// state is one bit per flip-flop, not one word: Snapshots stores lane 0 and
// Restore broadcasts it into every lane of a kernel batch. Restoring a
// snapshot and simulating forward reproduces the golden run exactly, which
// is what makes golden fast-forward of faulty batches sound: lanes only
// diverge from golden at their first injected flip, so every cycle before
// the batch's earliest injection is provably identical to the golden run
// and can be skipped.
//
// A Snapshots instance is immutable after capture and safe for concurrent
// use by any number of restoring engines.
type Snapshots struct {
	every   int
	cycles  int
	numFFs  int
	ffWords int // ceil(numFFs/64)
	numLb   int

	captured int      // snapshots captured so far (== numSnaps() when complete)
	ff       []uint64 // [snap][ffWords] packed golden FF bits
	lb       []uint64 // [snap][numLb] golden loopback words
}

// NewSnapshots allocates an empty snapshot set for a program/stimulus pair.
// Pass it to RunConfig.Snapshots on the golden run to fill it; every must be
// positive (0 selects DefaultSnapshotEvery).
func NewSnapshots(p *Program, stim *Stimulus, every int) *Snapshots {
	if every <= 0 {
		every = DefaultSnapshotEvery
	}
	s := &Snapshots{
		every:   every,
		cycles:  stim.Cycles(),
		numFFs:  p.NumFFs(),
		ffWords: (p.NumFFs() + 63) / 64,
		numLb:   len(stim.loopback),
	}
	n := s.numSnaps()
	s.ff = make([]uint64, n*s.ffWords)
	s.lb = make([]uint64, n*s.numLb)
	return s
}

// numSnaps returns the number of restore points covering [0, cycles).
func (s *Snapshots) numSnaps() int {
	if s.cycles <= 0 {
		return 0
	}
	return (s.cycles-1)/s.every + 1
}

// Every returns the snapshot cadence in cycles.
func (s *Snapshots) Every() int { return s.every }

// Cycles returns the stimulus length the snapshots cover.
func (s *Snapshots) Cycles() int { return s.cycles }

// Complete reports whether every restore point has been captured (i.e. the
// golden run the set was attached to ran to completion).
func (s *Snapshots) Complete() bool { return s.captured == s.numSnaps() }

// IndexAtOrBefore returns the index of the latest snapshot at or before the
// given cycle.
func (s *Snapshots) IndexAtOrBefore(cycle int) int { return cycle / s.every }

// SnapCycle returns the cycle a snapshot index restores to.
func (s *Snapshots) SnapCycle(idx int) int { return idx * s.every }

// Matches verifies the snapshot geometry against a program/stimulus pair; a
// mismatched set would silently fast-forward into garbage state.
func (s *Snapshots) Matches(p *Program, stim *Stimulus) error {
	if s.numFFs != p.NumFFs() {
		return fmt.Errorf("sim: snapshots cover %d flip-flops, program has %d", s.numFFs, p.NumFFs())
	}
	if s.cycles != stim.Cycles() {
		return fmt.Errorf("sim: snapshots cover %d cycles, stimulus has %d", s.cycles, stim.Cycles())
	}
	if s.numLb != len(stim.loopback) {
		return fmt.Errorf("sim: snapshots hold %d loopback words, stimulus has %d", s.numLb, len(stim.loopback))
	}
	if !s.Complete() {
		return fmt.Errorf("sim: snapshot set incomplete (%d of %d captured)", s.captured, s.numSnaps())
	}
	return nil
}

// capture records the golden state at the top of cycle c when c is
// snapshot-aligned. The engine must be running a lane-uniform (golden)
// stimulus; lane 0 is taken as canonical.
func (s *Snapshots) capture(e *Engine, lb []uint64, c int) {
	if c%s.every != 0 {
		return
	}
	idx := c / s.every
	ffBase := idx * s.ffWords
	for w := 0; w < s.ffWords; w++ {
		s.ff[ffBase+w] = 0
	}
	for i := 0; i < s.numFFs; i++ {
		if e.FFState(i)&1 == 1 {
			s.ff[ffBase+i/64] |= 1 << uint(i%64)
		}
	}
	copy(s.lb[idx*s.numLb:(idx+1)*s.numLb], lb)
	if idx >= s.captured {
		s.captured = idx + 1
	}
}

// Restore resets the engine and loads snapshot idx into every lane of
// every batch word, broadcasting the golden flip-flop bits and filling lb
// (numLb·W words, loopback-major) with the golden loopback words.
func (s *Snapshots) Restore(e *KernelEngine, idx int, lb []uint64) {
	e.Reset()
	W := e.w
	ffBase := idx * s.ffWords
	for i := 0; i < s.numFFs; i++ {
		var word uint64
		if s.ff[ffBase+i/64]>>uint(i%64)&1 == 1 {
			word = ^uint64(0)
		}
		base := int(e.k.ffQ[i]) * W
		for w := 0; w < W; w++ {
			e.regs[base+w] = word
		}
	}
	lbBase := idx * s.numLb
	for j := 0; j < s.numLb; j++ {
		for w := 0; w < W; w++ {
			lb[j*W+w] = s.lb[lbBase+j]
		}
	}
}

// divergedLanes fills out (one mask per batch word) with the lanes whose
// inter-cycle state (flip-flop bits plus loopback words) differs from
// golden snapshot idx. A lane with a zero bit here has fully re-converged:
// its remaining simulation is cycle-for-cycle identical to the golden run.
func (s *Snapshots) divergedLanes(e *KernelEngine, lb []uint64, idx int, out []uint64) {
	W := e.w
	for w := 0; w < W; w++ {
		out[w] = 0
	}
	ffBase := idx * s.ffWords
	for i := 0; i < s.numFFs; i++ {
		var want uint64
		if s.ff[ffBase+i/64]>>uint(i%64)&1 == 1 {
			want = ^uint64(0)
		}
		base := int(e.k.ffQ[i]) * W
		for w := 0; w < W; w++ {
			out[w] |= e.regs[base+w] ^ want
		}
	}
	lbBase := idx * s.numLb
	for j := 0; j < s.numLb; j++ {
		for w := 0; w < W; w++ {
			out[w] |= lb[j*W+w] ^ s.lb[lbBase+j]
		}
	}
}

// MemoryBytes reports the approximate snapshot store size, mostly useful for
// sizing the cadence on very large designs.
func (s *Snapshots) MemoryBytes() int {
	return 8 * (len(s.ff) + len(s.lb))
}

// WindowConfig controls an incremental faulty-batch run (RunWindow). Word
// w of the engine's batch exposes its monitor words through Rows[w], and
// OnSnapshot receives one diverged-lane mask per word.
type WindowConfig struct {
	// Monitors lists output ports to record; must be within the kernel's
	// kept output set.
	Monitors []int
	// Rows receives each simulated cycle's monitor words, one row per
	// batch word: Rows[w][m] is monitor m's packed word in batch word w,
	// overwritten every cycle and valid from the cycle's evaluation until
	// OnCycle returns; each row holds len(Monitors) words. The caller keeps
	// whatever it needs of them; a nil entry (or a missing tail) skips
	// that word.
	Rows [][]uint64
	// PreEval is the per-cycle injection hook (see RunConfig.PreEval).
	PreEval func(cycle int)
	// OnCycle, when non-nil, is invoked after cycle c's monitor words are
	// written to Rows; returning true stops the run before cycle c+1.
	OnCycle func(cycle int) bool
	// OnSnapshot, when non-nil, is invoked at the top of every
	// snapshot-aligned cycle after the restore point with the per-word
	// masks of lanes that have diverged from the golden state; returning
	// true stops the run before that cycle is simulated.
	OnSnapshot func(cycle int, diverged []uint64) bool
}

// RunWindow is the incremental counterpart of Run on the compiled kernel:
// it restores the golden snapshot at or before start into all 64·W lanes,
// then simulates cycles forward until the stimulus ends or a hook stops
// it, exposing every simulated cycle's monitor words through cfg.Rows. It
// returns the first cycle NOT simulated; the cycles before the snapshot
// and from the returned cycle on are the caller's to take from the golden
// trace (they are provably identical to it: the prefix because lanes have
// not yet diverged, the suffix because the caller only stops once every
// lane's verdict can no longer change). Word w of the batch evolves
// exactly like an independent 64-lane batch.
func RunWindow(e *KernelEngine, stim *Stimulus, snaps *Snapshots, start int, cfg WindowConfig) int {
	W := e.w
	idx := snaps.IndexAtOrBefore(start)
	lb := make([]uint64, snaps.numLb*W)
	diverged := make([]uint64, W)
	snaps.Restore(e, idx, lb)
	first := snaps.SnapCycle(idx)

	for c := first; c < stim.cycles; c++ {
		if cfg.OnSnapshot != nil && c != first && c%snaps.every == 0 {
			snaps.divergedLanes(e, lb, c/snaps.every, diverged)
			if cfg.OnSnapshot(c, diverged) {
				return c
			}
		}
		for k, port := range stim.ports {
			e.SetInputBool(port, stim.vectors[k][c])
		}
		for i, l := range stim.loopback {
			for w := 0; w < W; w++ {
				e.SetInputWord(l.In, w, lb[i*W+w])
			}
		}
		if cfg.PreEval != nil {
			cfg.PreEval(c)
		}
		e.Eval()
		for i, l := range stim.loopback {
			for w := 0; w < W; w++ {
				lb[i*W+w] = e.OutputWord(l.Out, w)
			}
		}
		for w, row := range cfg.Rows {
			if row == nil {
				continue
			}
			for m, port := range cfg.Monitors {
				row[m] = e.OutputWord(port, w)
			}
		}
		if cfg.OnCycle != nil && cfg.OnCycle(c) {
			e.Commit()
			return c + 1
		}
		e.Commit()
	}
	return stim.cycles
}
