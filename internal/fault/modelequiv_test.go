package fault_test

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/circuit"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// The fault-model equivalence suite: every model — MBU clusters, stuck-at
// holds, SET pulses, windowed variants — must produce bit-identical failure
// masks, per-target tallies and checkpoints across the same engine ×
// schedule matrix the SEU suite pins (naive interpreter replay, incremental
// compiled kernel; plan-order and clustered packing), plus the model
// edge cases where off-by-one bugs would hide: clusters clamped at the FF
// count, stuck-at holds running past the last stimulus cycle, and SET
// pulses on combinational cells the kernel's dead-fanout pruner discards.

// equivModels is the model matrix the suites sweep: every kind, the
// parameter extremes, and windowed variants of each mechanism.
var equivModels = []string{
	"seu",
	"mbu:2", "mbu:4",
	"stuck0:2", "stuck1:3", "stuck0:8",
	"set",
	"seu@0.25-0.75", "mbu:3@0.5-1", "stuck1:2@0-0.5", "set@0.5-1",
}

// assertModelEquivalent runs one plan under every engine × schedule
// combination with the given model and requires bit-identical results
// against the naive plan-order reference.
func assertModelEquivalent(t *testing.T, p *sim.Program, stim *sim.Stimulus, monitors []int,
	cls fault.Classifier, model fault.Model, jobs []fault.Job) *fault.Result {
	t.Helper()
	var ref *fault.Result
	for _, rc := range runConfigs {
		cfg := rc.cfg
		cfg.Workers = 2
		cfg.Model = model
		res, err := fault.RunJobs(p, stim, monitors, cls, jobs, cfg)
		if err != nil {
			t.Fatalf("%s: %v", rc.name, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.TotalRuns != ref.TotalRuns || res.Batches != ref.Batches {
			t.Fatalf("%s: shape differs from reference", rc.name)
		}
		for i := range ref.FDR {
			if res.Failures[i] != ref.Failures[i] || res.Injections[i] != ref.Injections[i] ||
				res.FDR[i] != ref.FDR[i] {
				t.Fatalf("%s: target %d = %d/%d failures, reference %d/%d",
					rc.name, i, res.Failures[i], res.Injections[i],
					ref.Failures[i], ref.Injections[i])
			}
		}
	}
	return ref
}

// TestModelEquivalenceMAC sweeps the model matrix on the MAC under its
// packet-level classifier.
func TestModelEquivalenceMAC(t *testing.T) {
	p, bench := smallMAC(t)
	cls := fault.NewMACClassifier(bench, true)
	for _, spec := range equivModels {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			model, err := fault.ParseModel(spec)
			if err != nil {
				t.Fatalf("ParseModel: %v", err)
			}
			jobs := fault.NewModelPlan(model, model.NumTargets(p), 2, bench.ActiveCycles, 77)
			res := assertModelEquivalent(t, p, bench.Stim, bench.Monitors, cls, model, jobs)
			if want := model.NumTargets(p); len(res.FDR) != want {
				t.Fatalf("result sized for %d targets, want %d", len(res.FDR), want)
			}
			if res.TotalRuns != len(jobs) {
				t.Fatalf("ran %d of %d jobs", res.TotalRuns, len(jobs))
			}
		})
	}
}

// TestModelEquivalenceCorpus runs the matrix on a corpus scenario with the
// exact classifier — a different DUT family and failure criterion than the
// MAC fixture.
func TestModelEquivalenceCorpus(t *testing.T) {
	sc, err := corpus.Find("alupipe/randomops")
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	m, err := sc.Materialize(corpus.ScaleSmall, 1)
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	for _, spec := range []string{"mbu:3", "stuck0:4", "set", "stuck1:2@0.25-1"} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			model, err := fault.ParseModel(spec)
			if err != nil {
				t.Fatalf("ParseModel: %v", err)
			}
			jobs := fault.NewModelPlan(model, model.NumTargets(m.Program), 2, m.Bench.ActiveCycles, 9)
			assertModelEquivalent(t, m.Program, m.Bench.Stim, m.Bench.Monitors, m.Bench.Classifier, model, jobs)
		})
	}
}

// tinyFixture compiles a hand-built 3-FF shift chain with a deliberately
// dead inverter (driven, read by nothing) — small enough that MBU clusters
// clamp at the device size, and with a combinational cell the kernel's
// dead-fanout pruner drops.
func tinyFixture(t *testing.T) (*sim.Program, *sim.Stimulus, []int, int) {
	t.Helper()
	b := netlist.NewBuilder("tiny")
	din := b.Input("din")
	d := din
	var q netlist.NetID
	for i := 0; i < 3; i++ {
		pop := b.Scope(string(rune('a' + i)))
		q = b.DFF("s", d, false)
		pop()
		d = b.Not(q)
	}
	dead := b.Not(din) // no reader: pruned by the kernel compiler
	_ = dead
	b.Output("q", q)
	nl, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	p, err := sim.Compile(nl)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	// Locate the dead inverter's comb-target index for targeted SET jobs.
	deadTarget := -1
	for ti := 0; ti < p.NumCombTargets(); ti++ {
		ci := p.CombTargetCell(ti)
		read := false
		out := nl.Cells[ci].Output
		for cj := range nl.Cells {
			for _, in := range nl.Cells[cj].Inputs {
				if in == out {
					read = true
				}
			}
		}
		for _, o := range nl.Outputs {
			if o == out {
				read = true
			}
		}
		if !read {
			deadTarget = ti
		}
	}
	if deadTarget < 0 {
		t.Fatal("fixture lost its dead inverter")
	}
	stim := sim.NewStimulus(48)
	set := stim.DrivePort(0)
	for c := 0; c < 48; c++ {
		set(c, c%3 == 0)
	}
	return p, stim, []int{0}, deadTarget
}

// TestModelEquivalenceMBUClusterClamp: an MBU larger than the device must
// clamp its clusters to every flip-flop and still agree across engines.
func TestModelEquivalenceMBUClusterClamp(t *testing.T) {
	p, stim, monitors, _ := tinyFixture(t)
	if p.NumFFs() >= 4 {
		t.Fatalf("fixture has %d FFs, want < 4 to exercise the clamp", p.NumFFs())
	}
	model, err := fault.ParseModel("mbu:4")
	if err != nil {
		t.Fatal(err)
	}
	jobs := fault.NewModelPlan(model, p.NumFFs(), 4, stim.Cycles(), 5)
	res := assertModelEquivalent(t, p, stim, monitors, &fault.ExactClassifier{}, model, jobs)
	// Flipping the whole 3-FF state is a heavy fault; the shift chain's
	// output must diverge somewhere or the fixture is not exercising MBU.
	total := 0
	for _, f := range res.Failures {
		total += f
	}
	if total == 0 {
		t.Fatal("full-device MBU produced no failures")
	}
}

// TestModelEquivalenceStuckPastEnd: a stuck-at hold whose duration runs past
// the last stimulus cycle must clamp identically on every path.
func TestModelEquivalenceStuckPastEnd(t *testing.T) {
	p, bench := smallMAC(t)
	cls := fault.NewMACClassifier(bench, true)
	model, err := fault.ParseModel("stuck1:8")
	if err != nil {
		t.Fatal(err)
	}
	last := bench.Stim.Cycles() - 1
	var jobs []fault.Job
	for i := 0; i < 2*64; i++ {
		// Alternate between the very last cycle (duration clamps to 1
		// effective cycle) and a cycle whose hold straddles the end.
		c := last
		if i%2 == 1 {
			c = last - 3
		}
		jobs = append(jobs, fault.Job{FF: (i * 5) % p.NumFFs(), Cycle: c})
	}
	assertModelEquivalent(t, p, bench.Stim, bench.Monitors, cls, model, jobs)
}

// TestModelEquivalenceSETDeadFanout: a SET pulse on a combinational cell the
// kernel compiler prunes must classify as a clean run on both engines —
// the transient has nowhere to latch — while pulses on live cells agree
// bit for bit.
func TestModelEquivalenceSETDeadFanout(t *testing.T) {
	p, stim, monitors, deadTarget := tinyFixture(t)
	model, err := fault.ParseModel("set")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []fault.Job
	for i := 0; i < 64; i++ {
		jobs = append(jobs, fault.Job{FF: deadTarget, Cycle: i % (stim.Cycles() - 1)})
	}
	// A second batch hits every comb target, dead one included.
	for i := 0; i < 64; i++ {
		jobs = append(jobs, fault.Job{FF: i % p.NumCombTargets(), Cycle: (i * 3) % (stim.Cycles() - 1)})
	}
	res := assertModelEquivalent(t, p, stim, monitors, &fault.ExactClassifier{}, model, jobs)
	if res.Failures[deadTarget] != 0 {
		t.Fatalf("SET on a dead-fanout cell reported %d failures", res.Failures[deadTarget])
	}
}

// TestSEUModelPreservesResults is the backward-compatibility property: the
// explicit SEU model must reproduce the zero-config campaign exactly —
// same result, same checkpoint fingerprint — on the MAC ground-truth
// campaign and on every registered corpus scenario. A checkpoint whose
// header predates the model field ("" model) must fingerprint identically
// too, so legacy files remain resumable.
func TestSEUModelPreservesResults(t *testing.T) {
	check := func(t *testing.T, p *sim.Program, stim *sim.Stimulus, monitors []int,
		cls fault.Classifier, active int, seed int64) {
		t.Helper()
		dir := t.TempDir()
		legacyJobs := fault.NewPlan(p.NumFFs(), 2, active, seed)
		seu, err := fault.ParseModel("seu")
		if err != nil {
			t.Fatal(err)
		}
		modelJobs := fault.NewModelPlan(seu, seu.NumTargets(p), 2, active, seed)
		if len(legacyJobs) != len(modelJobs) {
			t.Fatalf("plan sizes differ: %d vs %d", len(legacyJobs), len(modelJobs))
		}
		for i := range legacyJobs {
			if legacyJobs[i] != modelJobs[i] {
				t.Fatalf("job %d differs: %+v vs %+v", i, legacyJobs[i], modelJobs[i])
			}
		}

		ckLegacy := filepath.Join(dir, "legacy.ffr")
		want, err := fault.RunJobs(p, stim, monitors, cls, legacyJobs,
			fault.RunnerConfig{Workers: 2, CheckpointPath: ckLegacy})
		if err != nil {
			t.Fatalf("legacy run: %v", err)
		}
		ckModel := filepath.Join(dir, "model.ffr")
		got, err := fault.RunJobs(p, stim, monitors, cls, modelJobs,
			fault.RunnerConfig{Workers: 2, Model: seu, CheckpointPath: ckModel})
		if err != nil {
			t.Fatalf("SEU-model run: %v", err)
		}
		sameResult(t, want, got)

		a, err := fault.LoadCheckpoint(ckLegacy)
		if err != nil {
			t.Fatalf("legacy checkpoint: %v", err)
		}
		b, err := fault.LoadCheckpoint(ckModel)
		if err != nil {
			t.Fatalf("model checkpoint: %v", err)
		}
		if a.Fingerprint() != b.Fingerprint() {
			t.Fatalf("checkpoint fingerprints differ: %016x vs %016x", a.Fingerprint(), b.Fingerprint())
		}
		// A pre-model header spells the model as "" — same fingerprint.
		b.Model = ""
		if a.Fingerprint() != b.Fingerprint() {
			t.Fatalf("legacy \"\" model changes the fingerprint: %016x vs %016x",
				a.Fingerprint(), b.Fingerprint())
		}
	}

	t.Run("mac-ground-truth", func(t *testing.T) {
		p, bench := smallMAC(t)
		check(t, p, bench.Stim, bench.Monitors, fault.NewMACClassifier(bench, true),
			bench.ActiveCycles, 2019)
	})
	for _, sc := range corpus.List() {
		sc := sc
		t.Run(sc.ID(), func(t *testing.T) {
			m, err := sc.Materialize(corpus.ScaleSmall, 1)
			if err != nil {
				t.Fatalf("materialize: %v", err)
			}
			check(t, m.Program, m.Bench.Stim, m.Bench.Monitors, m.Bench.Classifier,
				m.Bench.ActiveCycles, sc.Entry.Defaults.CampaignSeed)
		})
	}
}

// TestModelCheckpointCrossBackendResume: for every fault model, a campaign
// interrupted on the kernel must resume on the naive interpreter ("interp")
// and vice versa, and match the uninterrupted naive plan-order reference
// bit for bit.
func TestModelCheckpointCrossBackendResume(t *testing.T) {
	p, bench := smallMAC(t)
	newCls := func() fault.Classifier { return fault.NewMACClassifier(bench, true) }

	dirs := []struct {
		name          string
		first, second bool // Naive
	}{
		{"interp-to-kernel", true, false},
		{"kernel-to-interp", false, true},
	}
	for _, spec := range []string{"mbu:2", "stuck0:2", "set", "seu@0.25-0.75"} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			model, err := fault.ParseModel(spec)
			if err != nil {
				t.Fatalf("ParseModel: %v", err)
			}
			jobs := fault.NewModelPlan(model, model.NumTargets(p), 2, bench.ActiveCycles, 21)
			want, err := fault.RunJobs(p, bench.Stim, bench.Monitors, newCls(), jobs,
				fault.RunnerConfig{Naive: true, Schedule: fault.SchedulePlan,
					ChunkJobs: sim.Lanes, Model: model})
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			for _, dir := range dirs {
				dir := dir
				t.Run(dir.name, func(t *testing.T) {
					ckpt := filepath.Join(t.TempDir(), "campaign.ffr")
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					ri, err := fault.NewRunner(p, bench.Stim, bench.Monitors, newCls(), fault.RunnerConfig{
						Model:           model,
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
					if ck.Model != model.String() {
						t.Fatalf("checkpoint records model %q, want %q", ck.Model, model)
					}
					if len(ck.Chunks) == 0 || len(ck.Chunks) >= want.Chunks {
						t.Fatalf("interrupt did not land mid-run (%d of %d chunks)", len(ck.Chunks), want.Chunks)
					}

					rr, err := fault.NewRunner(p, bench.Stim, bench.Monitors, newCls(), fault.RunnerConfig{
						Model:          model,
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
		})
	}
}

// TestModelMismatchRejected: masks are only meaningful under the model that
// produced them, so resuming a checkpoint under a different fault model must
// be refused with ErrCheckpointMismatch.
func TestModelMismatchRejected(t *testing.T) {
	p, bench := smallMAC(t)
	mbu, err := fault.ParseModel("mbu:2")
	if err != nil {
		t.Fatal(err)
	}
	jobs := fault.NewModelPlan(mbu, p.NumFFs(), 2, bench.ActiveCycles, 21)
	ckpt := filepath.Join(t.TempDir(), "campaign.ffr")

	seed, err := fault.NewRunner(p, bench.Stim, bench.Monitors,
		fault.NewMACClassifier(bench, true),
		fault.RunnerConfig{Model: mbu, ChunkJobs: sim.Lanes, CheckpointPath: ckpt})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	if _, err := seed.Run(jobs); err != nil {
		t.Fatalf("seeding checkpoint: %v", err)
	}

	other, err := fault.NewRunner(p, bench.Stim, bench.Monitors,
		fault.NewMACClassifier(bench, true),
		fault.RunnerConfig{ChunkJobs: sim.Lanes, CheckpointPath: ckpt, Resume: true})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	if _, err := other.Run(jobs); !errors.Is(err, fault.ErrCheckpointMismatch) {
		t.Fatalf("SEU resume of an MBU checkpoint returned %v", err)
	}
}

// TestLegacyModelCheckpointResume: a checkpoint whose header predates the
// fault-model field must resume under the default SEU runner and finish
// bit-identically — pre-model campaign files stay usable.
func TestLegacyModelCheckpointResume(t *testing.T) {
	p, bench := smallMAC(t)
	jobs := fault.NewPlan(p.NumFFs(), 2, bench.ActiveCycles, 21)
	ckpt := filepath.Join(t.TempDir(), "campaign.ffr")
	newCls := func() fault.Classifier { return fault.NewMACClassifier(bench, true) }

	want, err := fault.RunJobs(p, bench.Stim, bench.Monitors, newCls(), jobs,
		fault.RunnerConfig{Naive: true, Schedule: fault.SchedulePlan, ChunkJobs: sim.Lanes})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}

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

	// Rewrite the header as a pre-model file: no fault model recorded.
	ck, err := fault.LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if len(ck.Chunks) == 0 || len(ck.Chunks) >= want.Chunks {
		t.Fatalf("interrupt did not land mid-run (%d of %d chunks)", len(ck.Chunks), want.Chunks)
	}
	ck.Model = ""
	if err := fault.SaveCheckpoint(ckpt, ck); err != nil {
		t.Fatalf("rewriting checkpoint: %v", err)
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
		t.Fatalf("legacy resume rejected: %v", err)
	}
	sameResult(t, want, got)

	// The finished checkpoint records the canonical model string.
	final, err := fault.LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	if final.Model != "seu" {
		t.Fatalf("final checkpoint model %q, want %q", final.Model, "seu")
	}
}

// TestFaultModelDistinctProfiles is the faultmodel-smoke target: the point
// of the abstraction is that different physics produce different failure
// profiles, so a heavier model must not collapse onto the SEU reference.
func TestFaultModelDistinctProfiles(t *testing.T) {
	p, bench := smallMAC(t)
	cls := fault.NewMACClassifier(bench, true)
	run := func(spec string) *fault.Result {
		t.Helper()
		model, err := fault.ParseModel(spec)
		if err != nil {
			t.Fatalf("ParseModel(%q): %v", spec, err)
		}
		jobs := fault.NewModelPlan(model, model.NumTargets(p), 3, bench.ActiveCycles, 2019)
		res, err := fault.RunJobs(p, bench.Stim, bench.Monitors, cls, jobs,
			fault.RunnerConfig{Workers: 2, Model: model})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		return res
	}
	seu := run("seu")
	for _, spec := range []string{"mbu:4", "stuck0:8", "stuck1:8"} {
		res := run(spec)
		same := true
		for ff := range seu.Failures {
			if res.Failures[ff] != seu.Failures[ff] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s produced the exact SEU failure profile — model has no effect", spec)
		}
	}
	set := run("set")
	if len(set.FDR) != p.NumCombTargets() {
		t.Fatalf("SET result sized %d, want one slot per comb target (%d)",
			len(set.FDR), p.NumCombTargets())
	}
	if set.TotalRuns != 3*p.NumCombTargets() {
		t.Fatalf("SET ran %d jobs, want %d", set.TotalRuns, 3*p.NumCombTargets())
	}
}

// Keep the circuit import live even if fixtures change shape.
var _ = circuit.MACConfig{}
