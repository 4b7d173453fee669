// Package fault implements the paper's flat statistical fault-injection
// campaign (Section IV-A) and generalizes it over pluggable fault models:
// faults are injected at random times during the active simulation phase,
// runs are classified at the applicative level against a golden reference,
// and the per-target Functional De-Rating factor is the fraction of failing
// runs.
//
// The Model type selects what one injection physically is. The zero value —
// and the paper's reference — is the SEU: invert the value stored in one
// flip-flop for one cycle. The other models reuse the exact same plan,
// scheduling, sharding and checkpoint machinery: MBU flips a spatial cluster
// of flip-flops (netlist proximity standing in for placement), stuck-at-0/1
// holds a flip-flop at a value for a duration, SET pulses a combinational
// cell's output for one evaluation (latching only where a downstream
// flip-flop samples it), and any model can be windowed to a fraction of the
// active phase. Every model is bit-identical between the production engine
// and the naive oracle and across schedules, and the SEU model is
// bit-identical to the pre-model campaign — both properties are pinned by
// the equivalence suite.
//
// The campaign is bit-parallel: faulty runs execute incrementally on the
// compiled kernel (sim.KernelEngine), one batch per chunk of up to
// 64·sim.DefaultKernelWords independent injection runs per combinational
// pass — a default 1024-job chunk in one pass. The per-op
// interpreter (sim.Engine) runs the golden reference and, under
// RunnerConfig.Naive, the full-replay oracle. Execution is owned by Runner,
// which shards the plan into fixed-size chunks, fans them out across a
// bounded worker pool, merges partial results deterministically (worker
// count and chunk size never change the outcome), and can checkpoint
// completed-chunk state to disk for exact resume. Checkpoints record the
// fault model and refuse to resume under a different one. RunCampaign and
// RunJobs are thin convenience wrappers over Runner, and the distributed
// fabric's RunChunks runs leased chunks through the same pool and engine.
//
// The same machinery serves partial campaigns: the core estimation flow
// injects only a training subset, and the active-learning planner (package
// plan) runs every adaptive round on a checkpointed Runner, whose plan
// fingerprints are what make interrupted loops resume bit-identically.
package fault
