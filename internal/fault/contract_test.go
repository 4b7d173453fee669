package fault_test

import (
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/sim"
)

// contractClassifier wraps a streaming classifier and checks the
// StreamClassifier soundness contract on every group the runner
// classifies: every lane a stream confirmed failed must be in the mask
// FailingLanes returns for the trace the runner reconstructed. It needs a
// single worker: within a batch the runner starts every group's stream
// before it classifies the groups in the same order, so streams pair with
// FailingLanes calls first in, first out. Event-free batches start no
// streams and are classified with none open.
type contractClassifier struct {
	inner      fault.StreamClassifier
	open       []*recordingStream
	checked    int
	violations []string
}

type recordingStream struct {
	fault.Stream
	used, failed uint64
}

func (s *recordingStream) Observe(cycle int, golden, faulty []uint64) uint64 {
	s.failed = s.Stream.Observe(cycle, golden, faulty)
	return s.failed
}

func (c *contractClassifier) StartStream(golden *sim.Trace, used uint64, from int) fault.Stream {
	s := &recordingStream{Stream: c.inner.StartStream(golden, used, from), used: used}
	c.open = append(c.open, s)
	return s
}

func (c *contractClassifier) FailingLanes(golden, faulty *sim.Trace, used uint64) uint64 {
	mask := c.inner.FailingLanes(golden, faulty, used)
	if len(c.open) == 0 {
		return mask
	}
	s := c.open[0]
	c.open = c.open[1:]
	c.checked++
	switch {
	case s.used != used:
		c.violations = append(c.violations,
			fmt.Sprintf("stream for lanes %#x paired with a group of lanes %#x", s.used, used))
	case s.failed&^mask != 0:
		c.violations = append(c.violations,
			fmt.Sprintf("stream confirmed lanes %#x that FailingLanes passes", s.failed&^mask))
	}
	return mask
}

// runContract runs one plan on the kernel under the contract checker and
// fails the test on any violation.
func runContract(t *testing.T, p *sim.Program, stim *sim.Stimulus, monitors []int,
	cls fault.StreamClassifier, model fault.Model, jobs []fault.Job) {
	t.Helper()
	cc := &contractClassifier{inner: cls}
	if _, err := fault.RunJobs(p, stim, monitors, cc, jobs,
		fault.RunnerConfig{Workers: 1, Model: model}); err != nil {
		t.Fatal(err)
	}
	if cc.checked == 0 {
		t.Fatal("no streamed group was classified")
	}
	if len(cc.open) != 0 {
		t.Fatalf("%d streams never classified", len(cc.open))
	}
	for _, v := range cc.violations {
		t.Error(v)
	}
}

// TestStreamContractMAC pins that the streams see exactly the rows the
// classification judges — SET output glitches included — on the MAC under
// its packet-level criterion, for every model mechanism.
func TestStreamContractMAC(t *testing.T) {
	p, bench := smallMAC(t)
	for _, spec := range []string{"seu", "mbu:2", "stuck0:2", "set", "set@0.5-1"} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			model, err := fault.ParseModel(spec)
			if err != nil {
				t.Fatalf("ParseModel: %v", err)
			}
			jobs := fault.NewModelPlan(model, model.NumTargets(p), 2, bench.ActiveCycles, 77)
			runContract(t, p, bench.Stim, bench.Monitors, fault.NewMACClassifier(bench, true), model, jobs)
		})
	}
}

// TestStreamContractCorpus checks the contract for the exact classifier on
// a corpus scenario under SET.
func TestStreamContractCorpus(t *testing.T) {
	sc, err := corpus.Find("alupipe/randomops")
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	m, err := sc.Materialize(corpus.ScaleSmall, 1)
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	cls, ok := m.Bench.Classifier.(fault.StreamClassifier)
	if !ok {
		t.Fatalf("scenario classifier %T does not stream", m.Bench.Classifier)
	}
	model, err := fault.ParseModel("set")
	if err != nil {
		t.Fatalf("ParseModel: %v", err)
	}
	jobs := fault.NewModelPlan(model, model.NumTargets(m.Program), 2, m.Bench.ActiveCycles, 9)
	runContract(t, m.Program, m.Bench.Stim, m.Bench.Monitors, cls, model, jobs)
}
