package fault_test

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"path/filepath"
	"testing"

	"repro/internal/circuit"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// The campaign-equivalence suite: the production path — the compiled kernel
// (gate fusion + dead-fanout pruning + wide batches) run incrementally
// (golden-snapshot fast-forward + streaming early exit + cycle-clustered
// scheduling) — must produce bit-identical failure masks, FDR vectors and
// checkpoint/resume behavior versus the naive full-replay interpreter, an
// oracle that shares neither its engine nor its batch loop, across the
// MAC, every registered corpus scenario (which includes the random netlist
// family), a TMR-hardened netlist and the edge cycles where off-by-one bugs
// would hide: flips at cycle 0, the last active cycle, the last stimulus
// cycle and snapshot boundaries.

// runConfigs are the engine × schedule combinations every plan is run
// under; all of them must agree with the first (the naive plan-order
// reference).
var runConfigs = []struct {
	name string
	cfg  fault.RunnerConfig
}{
	{"naive/plan", fault.RunnerConfig{Naive: true, Schedule: fault.SchedulePlan}},
	{"naive/clustered", fault.RunnerConfig{Naive: true, Schedule: fault.ScheduleClustered}},
	{"kernel/plan", fault.RunnerConfig{Schedule: fault.SchedulePlan}},
	{"kernel/clustered", fault.RunnerConfig{Schedule: fault.ScheduleClustered}},
}

func assertEquivalent(t *testing.T, p *sim.Program, stim *sim.Stimulus, monitors []int,
	cls fault.Classifier, jobs []fault.Job) {
	t.Helper()
	var ref *fault.Result
	for _, rc := range runConfigs {
		cfg := rc.cfg
		cfg.Workers = 2
		res, err := fault.RunJobs(p, stim, monitors, cls, jobs, cfg)
		if err != nil {
			t.Fatalf("%s: %v", rc.name, err)
		}
		if cfg.Naive {
			if res.SimulatedCycles != res.ReplayCycles {
				t.Fatalf("%s: naive path simulated %d of %d replay cycles",
					rc.name, res.SimulatedCycles, res.ReplayCycles)
			}
		} else if res.SimulatedCycles > res.ReplayCycles {
			t.Fatalf("%s: incremental path simulated %d > %d replay cycles",
				rc.name, res.SimulatedCycles, res.ReplayCycles)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.TotalRuns != ref.TotalRuns || res.Batches != ref.Batches {
			t.Fatalf("%s: shape differs from reference", rc.name)
		}
		for ff := range ref.FDR {
			if res.Failures[ff] != ref.Failures[ff] || res.Injections[ff] != ref.Injections[ff] ||
				res.FDR[ff] != ref.FDR[ff] {
				t.Fatalf("%s: FF %d = %d/%d failures, reference %d/%d",
					rc.name, ff, res.Failures[ff], res.Injections[ff],
					ref.Failures[ff], ref.Injections[ff])
			}
		}
	}
}

// TestEquivalenceMAC pins the incremental path on the MAC classifier (the
// paper's packet-level criterion, streaming-capable).
func TestEquivalenceMAC(t *testing.T) {
	p, bench := smallMAC(t)
	cls := fault.NewMACClassifier(bench, true)
	jobs := fault.NewPlan(p.NumFFs(), 3, bench.ActiveCycles, 77)
	assertEquivalent(t, p, bench.Stim, bench.Monitors, cls, jobs)
}

// TestEquivalenceMACNoStats covers the criterion variant without the
// statistics readout.
func TestEquivalenceMACNoStats(t *testing.T) {
	p, bench := smallMAC(t)
	cls := fault.NewMACClassifier(bench, false)
	jobs := fault.NewPlan(p.NumFFs(), 2, bench.ActiveCycles, 78)
	assertEquivalent(t, p, bench.Stim, bench.Monitors, cls, jobs)
}

// TestEquivalenceCorpus sweeps every registered scenario — the structured
// DUT families and the random netlist family, under both the exact and the
// MAC classifier (whatever each workload registers).
func TestEquivalenceCorpus(t *testing.T) {
	for _, sc := range corpus.List() {
		sc := sc
		t.Run(sc.ID(), func(t *testing.T) {
			m, err := sc.Materialize(corpus.ScaleSmall, 1)
			if err != nil {
				t.Fatalf("materialize: %v", err)
			}
			jobs := fault.NewPlan(m.NumFFs(), 2, m.Bench.ActiveCycles, 9)
			assertEquivalent(t, m.Program, m.Bench.Stim, m.Bench.Monitors, m.Bench.Classifier, jobs)
		})
	}
}

// TestEquivalenceTMRHardened runs the suite on a TMR-hardened
// materialization of a corpus scenario: the rewrite triples flip-flops and
// inserts majority voters, so the kernel compiler sees the voter's AOI/OAI
// structure and the pruner a changed fanout cone — the hardened netlist
// must classify identically on every engine × schedule combination.
func TestEquivalenceTMRHardened(t *testing.T) {
	sc, err := corpus.Find("mac10ge/loopback")
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	mh, err := sc.MaterializeWith(corpus.ScaleSmall, 1, func(nl *netlist.Netlist) error {
		return circuit.ApplyTMR(nl, []int{0, 1, 2, 3})
	})
	if err != nil {
		t.Fatalf("materialize hardened: %v", err)
	}
	jobs := fault.NewPlan(mh.NumFFs(), 2, mh.Bench.ActiveCycles, 9)
	assertEquivalent(t, mh.Program, mh.Bench.Stim, mh.Bench.Monitors, mh.Bench.Classifier, jobs)
}

// TestEquivalenceEdgeCycles targets the boundary cases: flips at cycle 0,
// at snapshot boundaries (and their neighbours), at the last active cycle
// and at the very last stimulus cycle.
func TestEquivalenceEdgeCycles(t *testing.T) {
	p, bench := smallMAC(t)
	cls := fault.NewMACClassifier(bench, true)
	every := sim.DefaultSnapshotEvery
	edges := []int{0, 1, every - 1, every, every + 1, 2 * every,
		bench.ActiveCycles - 1, bench.Stim.Cycles() - 1}
	var jobs []fault.Job
	for i := 0; i < 3*64; i++ {
		jobs = append(jobs, fault.Job{
			FF:    (i * 7) % p.NumFFs(),
			Cycle: edges[i%len(edges)],
		})
	}
	assertEquivalent(t, p, bench.Stim, bench.Monitors, cls, jobs)
}

// TestEquivalenceSnapshotCadence pins that the snapshot cadence never
// changes results, only cost.
func TestEquivalenceSnapshotCadence(t *testing.T) {
	p, bench := smallMAC(t)
	jobs := fault.NewPlan(p.NumFFs(), 2, bench.ActiveCycles, 13)
	var ref *fault.Result
	for _, every := range []int{1, 3, sim.DefaultSnapshotEvery, 64, 1 << 20} {
		cls := fault.NewMACClassifier(bench, true)
		res, err := fault.RunJobs(p, bench.Stim, bench.Monitors, cls, jobs,
			fault.RunnerConfig{SnapshotEvery: every, Workers: 2})
		if err != nil {
			t.Fatalf("cadence %d: %v", every, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		for ff := range ref.FDR {
			if res.FDR[ff] != ref.FDR[ff] {
				t.Fatalf("cadence %d changes FDR[%d]: %v vs %v", every, ff, res.FDR[ff], ref.FDR[ff])
			}
		}
	}
}

// TestEquivalenceCheckpointResumeIncremental is the resume half of the
// acceptance criterion: an interrupted incremental clustered campaign
// resumed from its checkpoint matches the uninterrupted naive reference
// bit for bit, and reports the cycles it did not re-simulate as resumed.
func TestEquivalenceCheckpointResumeIncremental(t *testing.T) {
	p, bench := smallMAC(t)
	jobs := fault.NewPlan(p.NumFFs(), 2, bench.ActiveCycles, 21)
	ckpt := filepath.Join(t.TempDir(), "campaign.ffr")

	newCls := func() fault.Classifier { return fault.NewMACClassifier(bench, true) }

	want, err := fault.RunJobs(p, bench.Stim, bench.Monitors, newCls(), jobs,
		fault.RunnerConfig{Naive: true, Schedule: fault.SchedulePlan, ChunkJobs: sim.Lanes})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}

	// Interrupt the incremental clustered run after two chunks.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ri, err := fault.NewRunner(p, bench.Stim, bench.Monitors, newCls(), fault.RunnerConfig{
		ChunkJobs:       sim.Lanes,
		Workers:         2,
		CheckpointPath:  ckpt,
		CheckpointEvery: 1,
		OnProgress: func(pr fault.Progress) {
			if pr.ChunksDone >= 2 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	if _, err := ri.RunContext(ctx, jobs); !errors.Is(err, fault.ErrInterrupted) {
		t.Fatalf("interrupted run returned %v", err)
	}
	ck, err := fault.LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if got := ck.Schedule; got != string(fault.ScheduleClustered) {
		t.Fatalf("checkpoint schedule %q, want clustered", got)
	}
	if len(ck.Chunks) == 0 || len(ck.Chunks) >= want.Chunks {
		t.Fatalf("interrupt did not land mid-run (%d of %d chunks)", len(ck.Chunks), want.Chunks)
	}

	rr, err := fault.NewRunner(p, bench.Stim, bench.Monitors, newCls(), fault.RunnerConfig{
		ChunkJobs:      sim.Lanes,
		Workers:        2,
		CheckpointPath: ckpt,
		Resume:         true,
	})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	got, err := rr.Run(jobs)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got.ResumedChunks != len(ck.Chunks) {
		t.Fatalf("resumed %d chunks, checkpoint held %d", got.ResumedChunks, len(ck.Chunks))
	}
	sameResult(t, want, got)
	// Resumed chunks contribute no simulated cycles.
	if got.ReplayCycles != int64(want.Batches-got.ResumedChunks)*int64(bench.Stim.Cycles()) {
		t.Fatalf("replay cycles %d do not match %d computed batches",
			got.ReplayCycles, want.Batches-got.ResumedChunks)
	}
}

// TestEquivalenceCheckpointCrossBackend: checkpoints record plan geometry
// and schedule but deliberately not the engine — results are bit-identical
// between the kernel and the naive interpreter ("interp"), so a checkpoint
// written under one must resume under the other and still match the
// uninterrupted naive plan-order reference bit for bit.
func TestEquivalenceCheckpointCrossBackend(t *testing.T) {
	p, bench := smallMAC(t)
	jobs := fault.NewPlan(p.NumFFs(), 2, bench.ActiveCycles, 21)
	newCls := func() fault.Classifier { return fault.NewMACClassifier(bench, true) }

	want, err := fault.RunJobs(p, bench.Stim, bench.Monitors, newCls(), jobs,
		fault.RunnerConfig{Naive: true, Schedule: fault.SchedulePlan, ChunkJobs: sim.Lanes})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}

	dirs := []struct {
		name          string
		first, second bool // Naive
	}{
		{"interp-to-kernel", true, false},
		{"kernel-to-interp", false, true},
	}
	for _, dir := range dirs {
		dir := dir
		t.Run(dir.name, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "campaign.ffr")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ri, err := fault.NewRunner(p, bench.Stim, bench.Monitors, newCls(), fault.RunnerConfig{
				ChunkJobs:       sim.Lanes,
				Workers:         2,
				Naive:           dir.first,
				CheckpointPath:  ckpt,
				CheckpointEvery: 1,
				OnProgress: func(pr fault.Progress) {
					if pr.ChunksDone >= 2 {
						cancel()
					}
				},
			})
			if err != nil {
				t.Fatalf("NewRunner: %v", err)
			}
			if _, err := ri.RunContext(ctx, jobs); !errors.Is(err, fault.ErrInterrupted) {
				t.Fatalf("interrupted run returned %v", err)
			}
			ck, err := fault.LoadCheckpoint(ckpt)
			if err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			if len(ck.Chunks) == 0 || len(ck.Chunks) >= want.Chunks {
				t.Fatalf("interrupt did not land mid-run (%d of %d chunks)", len(ck.Chunks), want.Chunks)
			}

			rr, err := fault.NewRunner(p, bench.Stim, bench.Monitors, newCls(), fault.RunnerConfig{
				ChunkJobs:      sim.Lanes,
				Workers:        2,
				Naive:          dir.second,
				CheckpointPath: ckpt,
				Resume:         true,
			})
			if err != nil {
				t.Fatalf("NewRunner: %v", err)
			}
			got, err := rr.Run(jobs)
			if err != nil {
				t.Fatalf("cross-backend resume: %v", err)
			}
			if got.ResumedChunks != len(ck.Chunks) {
				t.Fatalf("resumed %d chunks, checkpoint held %d", got.ResumedChunks, len(ck.Chunks))
			}
			sameResult(t, want, got)
		})
	}
}

// TestScheduleMismatchRejected: masks are packed per schedule, so resuming a
// clustered checkpoint under plan order (or vice versa) must be refused.
func TestScheduleMismatchRejected(t *testing.T) {
	p, bench := smallMAC(t)
	jobs := fault.NewPlan(p.NumFFs(), 2, bench.ActiveCycles, 21)
	ckpt := filepath.Join(t.TempDir(), "campaign.ffr")

	seed, err := fault.NewRunner(p, bench.Stim, bench.Monitors,
		fault.NewMACClassifier(bench, true),
		fault.RunnerConfig{ChunkJobs: sim.Lanes, CheckpointPath: ckpt})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	if _, err := seed.Run(jobs); err != nil {
		t.Fatalf("seeding checkpoint: %v", err)
	}

	other, err := fault.NewRunner(p, bench.Stim, bench.Monitors,
		fault.NewMACClassifier(bench, true),
		fault.RunnerConfig{ChunkJobs: sim.Lanes, CheckpointPath: ckpt,
			Resume: true, Schedule: fault.SchedulePlan})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	if _, err := other.Run(jobs); !errors.Is(err, fault.ErrCheckpointMismatch) {
		t.Fatalf("plan-order resume of a clustered checkpoint returned %v", err)
	}
}

// TestLegacyScheduleAdoptedOnResume: a plan-order checkpoint — including a
// seed-era file whose header predates the schedule field — must resume on a
// default-configured runner: with no explicit schedule preference the runner
// adopts the checkpoint's packing instead of rejecting it, and the finished
// campaign still matches the reference bit for bit.
func TestLegacyScheduleAdoptedOnResume(t *testing.T) {
	p, bench := smallMAC(t)
	jobs := fault.NewPlan(p.NumFFs(), 2, bench.ActiveCycles, 21)
	ckpt := filepath.Join(t.TempDir(), "campaign.ffr")

	newCls := func() fault.Classifier { return fault.NewMACClassifier(bench, true) }
	want, err := fault.RunJobs(p, bench.Stim, bench.Monitors, newCls(), jobs,
		fault.RunnerConfig{Naive: true, Schedule: fault.SchedulePlan, ChunkJobs: sim.Lanes})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}

	// Interrupt an explicitly plan-order run to get a partial checkpoint.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ri, err := fault.NewRunner(p, bench.Stim, bench.Monitors, newCls(), fault.RunnerConfig{
		ChunkJobs:       sim.Lanes,
		Workers:         1,
		Schedule:        fault.SchedulePlan,
		CheckpointPath:  ckpt,
		CheckpointEvery: 1,
		OnProgress: func(pr fault.Progress) {
			if pr.ChunksDone >= 2 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	if _, err := ri.RunContext(ctx, jobs); !errors.Is(err, fault.ErrInterrupted) {
		t.Fatalf("interrupted run returned %v", err)
	}

	// Rewrite the header as a seed-era file: no schedule recorded.
	ck, err := fault.LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if len(ck.Chunks) == 0 || len(ck.Chunks) >= want.Chunks {
		t.Fatalf("interrupt did not land mid-run (%d of %d chunks)", len(ck.Chunks), want.Chunks)
	}
	ck.Schedule = ""
	if err := fault.SaveCheckpoint(ckpt, ck); err != nil {
		t.Fatalf("rewriting checkpoint: %v", err)
	}

	// A default-configured runner (no explicit schedule) adopts plan order.
	rr, err := fault.NewRunner(p, bench.Stim, bench.Monitors, newCls(), fault.RunnerConfig{
		ChunkJobs:      sim.Lanes,
		Workers:        2,
		CheckpointPath: ckpt,
		Resume:         true,
	})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	got, err := rr.Run(jobs)
	if err != nil {
		t.Fatalf("legacy resume rejected: %v", err)
	}
	if got.ResumedChunks != len(ck.Chunks) {
		t.Fatalf("resumed %d chunks, checkpoint held %d", got.ResumedChunks, len(ck.Chunks))
	}
	sameResult(t, want, got)

	// The finished checkpoint keeps the adopted schedule, not the default.
	final, err := fault.LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	if final.Schedule != string(fault.SchedulePlan) {
		t.Fatalf("final checkpoint schedule %q, want adopted %q", final.Schedule, fault.SchedulePlan)
	}
}

// TestRunnerValidatesIncrementalConfig covers the new config surface.
func TestRunnerValidatesIncrementalConfig(t *testing.T) {
	p, bench := smallMAC(t)
	cls := fault.NewMACClassifier(bench, true)

	if _, err := fault.NewRunner(p, bench.Stim, nil, cls, fault.RunnerConfig{}); err == nil {
		t.Fatal("runner accepted an empty monitor set")
	}
	if _, err := fault.NewRunner(p, bench.Stim, bench.Monitors, cls,
		fault.RunnerConfig{Schedule: "zigzag"}); err == nil {
		t.Fatal("runner accepted an unknown schedule")
	}
	if _, err := fault.NewRunner(p, bench.Stim, bench.Monitors, cls,
		fault.RunnerConfig{SnapshotEvery: -1}); err == nil {
		t.Fatal("runner accepted a negative snapshot cadence")
	}
	// An unfilled snapshot set must be rejected up front.
	empty := sim.NewSnapshots(p, bench.Stim, 8)
	if _, err := fault.NewRunner(p, bench.Stim, bench.Monitors, cls,
		fault.RunnerConfig{Snapshots: empty}); err == nil {
		t.Fatal("runner accepted incomplete snapshots")
	}
	// A cadence conflicting with supplied snapshots must be rejected.
	filled := sim.NewSnapshots(p, bench.Stim, 8)
	e := sim.NewEngine(p)
	sim.Run(e, bench.Stim, sim.RunConfig{Snapshots: filled})
	if _, err := fault.NewRunner(p, bench.Stim, bench.Monitors, cls,
		fault.RunnerConfig{Snapshots: filled, SnapshotEvery: 16}); err == nil {
		t.Fatal("runner accepted a conflicting snapshot cadence")
	}
	if _, err := fault.NewRunner(p, bench.Stim, bench.Monitors, cls,
		fault.RunnerConfig{Snapshots: filled, SnapshotEvery: 8}); err != nil {
		t.Fatalf("matching cadence rejected: %v", err)
	}
}

// TestWidthEdgesMatchNaive pins the kernel's batch-width edges against the
// naive oracle mask for mask: chunks of 1, 3, 16 (exactly the
// DefaultKernelWords cap), 17 and 40 groups — narrower than the cap, one
// group over it, and several full batches plus a remainder — over a plan
// whose length is no multiple of 64, so the last chunk is short and its
// last group partial. Both Run (masks read back from its checkpoint) and
// the fabric's RunChunks must reproduce the naive masks exactly.
func TestWidthEdgesMatchNaive(t *testing.T) {
	p, bench := smallMAC(t)
	newCls := func() fault.Classifier { return fault.NewMACClassifier(bench, true) }
	for _, groups := range []int{1, 3, 16, 17, 40} {
		groups := groups
		t.Run(fmt.Sprintf("groups=%d", groups), func(t *testing.T) {
			chunkJobs := groups * sim.Lanes
			total := chunkJobs + chunkJobs/2 + 37
			jobs := fault.NewPlan(p.NumFFs(), total/p.NumFFs()+1, bench.ActiveCycles, 31)[:total]
			sh, err := fault.PlanShards(total, chunkJobs)
			if err != nil {
				t.Fatal(err)
			}
			all := make([]int, sh.NumChunks())
			for i := range all {
				all[i] = i
			}
			chunks := func(naive bool) map[int][]uint64 {
				r, err := fault.NewRunner(p, bench.Stim, bench.Monitors, newCls(),
					fault.RunnerConfig{ChunkJobs: chunkJobs, Workers: 2, Naive: naive})
				if err != nil {
					t.Fatal(err)
				}
				masks, err := r.RunChunks(context.Background(), jobs, all)
				if err != nil {
					t.Fatal(err)
				}
				return masks
			}
			want := chunks(true)
			failing := 0
			for _, masks := range want {
				for _, m := range masks {
					failing += bits.OnesCount64(m)
				}
			}
			if failing == 0 {
				t.Fatal("the plan fails no lane; the comparison would be vacuous")
			}

			ckpt := filepath.Join(t.TempDir(), "campaign.ffr")
			r, err := fault.NewRunner(p, bench.Stim, bench.Monitors, newCls(),
				fault.RunnerConfig{ChunkJobs: chunkJobs, Workers: 2, CheckpointPath: ckpt})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Run(jobs); err != nil {
				t.Fatal(err)
			}
			ck, err := fault.LoadCheckpoint(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			for name, got := range map[string]map[int][]uint64{"Run": ck.Chunks, "RunChunks": chunks(false)} {
				if len(got) != len(want) {
					t.Fatalf("%s: %d chunks, naive %d", name, len(got), len(want))
				}
				for ci, masks := range want {
					if fmt.Sprint(got[ci]) != fmt.Sprint(masks) {
						t.Fatalf("%s: chunk %d masks %x, naive %x", name, ci, got[ci], masks)
					}
				}
			}
		})
	}
}
