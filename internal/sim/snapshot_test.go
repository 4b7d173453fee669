package sim_test

import (
	"fmt"
	"testing"

	"repro/internal/circuit"
	"repro/internal/sim"
)

// snapshotFixture builds a small MAC bench — loopback rules included, which
// is exactly the state a snapshot must capture beyond flip-flop bits.
func snapshotFixture(t *testing.T) (*sim.Program, *circuit.MACBench) {
	t.Helper()
	nl, err := circuit.NewMAC10GE(circuit.MACConfig{FIFODepth: 16, StatWidth: 16, TargetFFs: 0})
	if err != nil {
		t.Fatalf("NewMAC10GE: %v", err)
	}
	if err := circuit.Synthesize(nl); err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	p, err := sim.Compile(nl)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	bench, err := circuit.BuildMACBench(p, circuit.MACBenchConfig{
		Packets: 3, MinPayload: 4, MaxPayload: 6, Gap: 8,
		DrainCycles: 20, Seed: 5, FIFODepth: 16,
	})
	if err != nil {
		t.Fatalf("BuildMACBench: %v", err)
	}
	return p, bench
}

func goldenWithSnapshots(t *testing.T, p *sim.Program, bench *circuit.MACBench, every int) (*sim.Trace, *sim.Snapshots) {
	t.Helper()
	snaps := sim.NewSnapshots(p, bench.Stim, every)
	e := sim.NewEngine(p)
	golden, _ := sim.Run(e, bench.Stim, sim.RunConfig{Monitors: bench.Monitors, Snapshots: snaps})
	if !snaps.Complete() {
		t.Fatal("snapshots incomplete after a full golden run")
	}
	return golden, snaps
}

// windowWidths are the kernel batch widths the window tests run at: one
// word (the narrowest batch), an intermediate width and the campaign cap.
var windowWidths = []int{1, 4, sim.DefaultKernelWords}

// windowEngine builds a kernel engine of the given width that keeps the
// bench's monitored ports and loopback sources, exactly the output set a
// campaign compiles.
func windowEngine(t *testing.T, p *sim.Program, bench *circuit.MACBench, words int) *sim.KernelEngine {
	t.Helper()
	keep := append([]int(nil), bench.Monitors...)
	for _, lb := range bench.Stim.Loopbacks() {
		keep = append(keep, lb.Out)
	}
	k, err := sim.BuildKernel(p, sim.KernelConfig{KeepOutputs: keep})
	if err != nil {
		t.Fatalf("BuildKernel: %v", err)
	}
	return sim.NewKernelEngine(k, words)
}

// windowRecorder keeps the per-word rows RunWindow exposes as one
// full-length trace per batch word.
type windowRecorder struct {
	rows   [][]uint64
	traces []*sim.Trace
}

func newRecorder(bench *circuit.MACBench, words int) *windowRecorder {
	rec := &windowRecorder{rows: make([][]uint64, words), traces: make([]*sim.Trace, words)}
	for w := range rec.rows {
		rec.rows[w] = make([]uint64, len(bench.Monitors))
		rec.traces[w] = sim.NewTrace(bench.Monitors, bench.Stim.Cycles())
	}
	return rec
}

// record stores cycle c's rows into the traces, whose rows from the
// window's restore point on start out zero, so XOR-ing a row in stores it.
func (rec *windowRecorder) record(c int) {
	for w, row := range rec.rows {
		for m, word := range row {
			rec.traces[w].XORWord(c, m, word)
		}
	}
}

// A fault-free window run restored from any snapshot must reproduce the
// interpreter's golden trace exactly in every batch word and never report
// divergence — the soundness core of golden fast-forward.
func TestRunWindowReproducesGolden(t *testing.T) {
	p, bench := snapshotFixture(t)
	golden, snaps := goldenWithSnapshots(t, p, bench, 8)
	cycles := bench.Stim.Cycles()
	for _, words := range windowWidths {
		t.Run(fmt.Sprintf("W=%d", words), func(t *testing.T) {
			e := windowEngine(t, p, bench, words)
			for _, start := range []int{0, 1, 7, 8, 9, cycles / 2, cycles - 1} {
				rec := newRecorder(bench, words)
				for _, tr := range rec.traces {
					tr.CopyCycles(golden, 0, snaps.SnapCycle(snaps.IndexAtOrBefore(start)))
				}
				stop := sim.RunWindow(e, bench.Stim, snaps, start, sim.WindowConfig{
					Monitors: bench.Monitors,
					Rows:     rec.rows,
					OnCycle:  func(c int) bool { rec.record(c); return false },
					OnSnapshot: func(c int, diverged []uint64) bool {
						for w, d := range diverged {
							if d != 0 {
								t.Fatalf("start %d: spurious divergence %x in word %d at cycle %d", start, d, w, c)
							}
						}
						return false
					},
				})
				if stop != cycles {
					t.Fatalf("start %d: stopped at %d without a stop hook", start, stop)
				}
				for w, tr := range rec.traces {
					if !tr.Equal(golden) {
						t.Fatalf("start %d: fast-forwarded trace of word %d differs from golden", start, w)
					}
				}
			}
		})
	}
}

func TestRunWindowEarlyStop(t *testing.T) {
	p, bench := snapshotFixture(t)
	golden, snaps := goldenWithSnapshots(t, p, bench, 8)
	cycles := bench.Stim.Cycles()
	for _, words := range windowWidths {
		t.Run(fmt.Sprintf("W=%d", words), func(t *testing.T) {
			e := windowEngine(t, p, bench, words)

			// OnCycle stop: the stopping cycle is recorded, so the first
			// unrecorded cycle is c+1.
			rec := newRecorder(bench, words)
			stop := sim.RunWindow(e, bench.Stim, snaps, 0, sim.WindowConfig{
				Monitors: bench.Monitors,
				Rows:     rec.rows,
				OnCycle:  func(c int) bool { rec.record(c); return c == 20 },
			})
			if stop != 21 {
				t.Fatalf("OnCycle stop at 20 returned %d, want 21", stop)
			}
			for w, tr := range rec.traces {
				tr.CopyCycles(golden, stop, cycles)
				if !tr.Equal(golden) {
					t.Fatalf("word %d: stopped fault-free trace + golden suffix differs from golden", w)
				}
			}

			// OnSnapshot stop: the boundary cycle is not simulated.
			stop = sim.RunWindow(e, bench.Stim, snaps, 0, sim.WindowConfig{
				Monitors:   bench.Monitors,
				Rows:       newRecorder(bench, words).rows,
				OnSnapshot: func(c int, diverged []uint64) bool { return c >= 24 },
			})
			if stop != 24 {
				t.Fatalf("OnSnapshot stop at 24 returned %d, want %d", stop, 24)
			}
		})
	}
}

// A flip must show up as divergence at the next boundary — in the flipped
// word only — and restoring a snapshot must clear it, i.e. restores really
// do rewind lane state.
func TestRunWindowSeesDivergenceAndRestoreClearsIt(t *testing.T) {
	p, bench := snapshotFixture(t)
	_, snaps := goldenWithSnapshots(t, p, bench, 8)
	for _, words := range windowWidths {
		t.Run(fmt.Sprintf("W=%d", words), func(t *testing.T) {
			e := windowEngine(t, p, bench, words)
			flipWord := words - 1

			var sawDiverged []uint64
			sim.RunWindow(e, bench.Stim, snaps, 0, sim.WindowConfig{
				Monitors: bench.Monitors,
				Rows:     newRecorder(bench, words).rows,
				PreEval: func(c int) {
					if c == 2 {
						e.FlipFF(0, flipWord, 1<<5)
					}
				},
				OnSnapshot: func(c int, diverged []uint64) bool {
					if c == 8 {
						sawDiverged = append([]uint64(nil), diverged...)
						return true
					}
					return false
				},
			})
			if len(sawDiverged) != words {
				t.Fatalf("boundary at cycle 8 reported %d divergence masks, want %d", len(sawDiverged), words)
			}
			for w, d := range sawDiverged {
				if w == flipWord && d>>5&1 != 1 {
					t.Fatalf("flip on word %d lane 5 not seen as divergence (mask %x)", w, d)
				}
				if w != flipWord && d != 0 {
					t.Fatalf("word %d reports divergence %x without a flip", w, d)
				}
			}

			// The engine still carries the flipped state; a fresh
			// fault-free window from the same dirty engine must be golden
			// again after Restore.
			clean := true
			sim.RunWindow(e, bench.Stim, snaps, 0, sim.WindowConfig{
				Monitors: bench.Monitors,
				Rows:     newRecorder(bench, words).rows,
				OnSnapshot: func(c int, diverged []uint64) bool {
					for _, d := range diverged {
						if d != 0 {
							clean = false
						}
					}
					return false
				},
			})
			if !clean {
				t.Fatal("restore did not clear previous batch state")
			}
		})
	}
}

func TestSnapshotsGeometry(t *testing.T) {
	p, bench := snapshotFixture(t)
	_, snaps := goldenWithSnapshots(t, p, bench, 8)
	if snaps.Every() != 8 {
		t.Fatalf("Every = %d", snaps.Every())
	}
	if got := snaps.IndexAtOrBefore(0); got != 0 {
		t.Fatalf("IndexAtOrBefore(0) = %d", got)
	}
	if got := snaps.SnapCycle(snaps.IndexAtOrBefore(17)); got != 16 {
		t.Fatalf("snapshot before 17 restores to %d, want 16", got)
	}
	if err := snaps.Matches(p, bench.Stim); err != nil {
		t.Fatalf("Matches on own geometry: %v", err)
	}
	if snaps.MemoryBytes() <= 0 {
		t.Fatal("MemoryBytes not reported")
	}

	// A never-filled set must be rejected.
	empty := sim.NewSnapshots(p, bench.Stim, 8)
	if err := empty.Matches(p, bench.Stim); err == nil {
		t.Fatal("incomplete snapshot set accepted")
	}

	// Foreign geometry must be rejected.
	other := sim.NewStimulus(bench.Stim.Cycles() + 1)
	if err := snaps.Matches(p, other); err == nil {
		t.Fatal("mismatched stimulus accepted")
	}
}

func TestTraceRowAndCopyCycles(t *testing.T) {
	p, bench := snapshotFixture(t)
	golden, _ := goldenWithSnapshots(t, p, bench, 8)
	row := golden.Row(3)
	if len(row) != len(golden.Monitors) {
		t.Fatalf("row has %d words for %d monitors", len(row), len(golden.Monitors))
	}
	for m := range row {
		if row[m] != golden.Word(3, m) {
			t.Fatalf("Row(3)[%d] != Word(3,%d)", m, m)
		}
	}

	dst := sim.NewTrace(golden.Monitors, golden.Cycles())
	dst.CopyCycles(golden, 5, 9)
	for c := 5; c < 9; c++ {
		for m := range golden.Monitors {
			if dst.Word(c, m) != golden.Word(c, m) {
				t.Fatalf("copied word (%d,%d) differs", c, m)
			}
		}
	}
	// Rows outside [5,9) stay untouched (the fresh trace is all zero).
	if dst.Word(4, 0) != 0 || dst.Word(9, 0) != 0 {
		t.Fatal("CopyCycles touched rows outside the range")
	}
}
