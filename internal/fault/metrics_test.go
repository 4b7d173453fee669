package fault_test

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestCampaignMetrics pins the ffr_campaign_* families: an instrumented
// campaign must report consistent chunk/batch/job counts, a plausible
// fast-forward hit rate, and early-exit accounting that covers every
// batch.
func TestCampaignMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	r, jobs := newRunner(t, fault.RunnerConfig{
		ChunkJobs: sim.Lanes,
		Workers:   2,
		Metrics:   reg,
	})
	res, err := r.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	reg.WriteText(&b)
	text := b.String()
	for _, fam := range []string{
		"ffr_campaign_chunks_completed_total",
		"ffr_campaign_chunk_seconds_count",
		"ffr_campaign_batches_total",
		"ffr_campaign_simulated_cycles_total",
		"ffr_campaign_replay_cycles_total",
		"ffr_campaign_early_exits_total",
		"ffr_campaign_jobs_done",
		"ffr_campaign_jobs_total",
	} {
		if !strings.Contains(text, fam) {
			t.Fatalf("exposition missing %s:\n%s", fam, text)
		}
	}

	get := func(name string) float64 {
		t.Helper()
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, name+" ") {
				v, err := strconv.ParseFloat(strings.TrimSpace(line[len(name)+1:]), 64)
				if err != nil {
					t.Fatalf("parsing %q: %v", line, err)
				}
				return v
			}
		}
		t.Fatalf("exposition has no sample %s:\n%s", name, text)
		return 0
	}
	if got := get("ffr_campaign_chunks_completed_total"); got != float64(res.Chunks) {
		t.Fatalf("chunks completed %v, result says %d", got, res.Chunks)
	}
	if got := get("ffr_campaign_batches_total"); got != float64(res.Batches) {
		t.Fatalf("batches %v, result says %d", got, res.Batches)
	}
	if got := get("ffr_campaign_jobs_done"); got != float64(res.TotalRuns) {
		t.Fatalf("jobs done gauge %v, result says %d", got, res.TotalRuns)
	}
	if got := get("ffr_campaign_simulated_cycles_total"); got != float64(res.SimulatedCycles) {
		t.Fatalf("simulated cycles %v, result says %d", got, res.SimulatedCycles)
	}
	if got := get("ffr_campaign_replay_cycles_total"); got != float64(res.ReplayCycles) {
		t.Fatalf("replay cycles %v, result says %d", got, res.ReplayCycles)
	}
}

// TestCampaignMetricsBackendLabel pins the engine telemetry: the chunk
// wall-time histogram carries the engine as its backend label ("kernel" on
// the production path, "interp" under Naive), the lanes-per-batch gauge
// reports the width each engine actually runs (64 naive interpreter lanes;
// on the kernel, 64 per group of a chunk — 3 here, under the
// DefaultKernelWords cap), and the combined exposition passes
// scripts/metrics-lint.sh — the same gate CI runs against live /metrics
// endpoints.
func TestCampaignMetricsBackendLabel(t *testing.T) {
	cases := []struct {
		naive bool
		label string
		lanes int
	}{
		{true, "interp", sim.Lanes},
		{false, "kernel", 3 * sim.Lanes},
	}
	for _, c := range cases {
		c := c
		t.Run(c.label, func(t *testing.T) {
			reg := obs.NewRegistry()
			r, jobs := newRunner(t, fault.RunnerConfig{
				ChunkJobs: 3 * sim.Lanes,
				Workers:   2,
				Naive:     c.naive,
				Metrics:   reg,
			})
			if _, err := r.Run(jobs); err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			reg.WriteText(&b)
			text := b.String()
			labeled := `ffr_campaign_chunk_seconds_count{backend="` + c.label + `"}`
			if !strings.Contains(text, labeled) {
				t.Fatalf("exposition missing %s:\n%s", labeled, text)
			}
			gauge := "ffr_campaign_lanes_per_batch " + strconv.Itoa(c.lanes)
			if !strings.Contains(text, gauge) {
				t.Fatalf("exposition missing %q:\n%s", gauge, text)
			}
			lintExposition(t, text)
		})
	}
}

// TestRunChunksSimulatesOnKernel pins that the fabric's unit of work runs
// on the production engine: RunChunks over every chunk of a plan must
// record each chunk under the kernel's backend label, at the kernel's
// lane width for the plan's chunks (3 groups each), just as Run does.
func TestRunChunksSimulatesOnKernel(t *testing.T) {
	reg := obs.NewRegistry()
	r, jobs := newRunner(t, fault.RunnerConfig{ChunkJobs: 3 * sim.Lanes, Workers: 2, Metrics: reg})
	sh, err := fault.PlanShards(len(jobs), 3*sim.Lanes)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, sh.NumChunks())
	for i := range all {
		all[i] = i
	}
	if _, err := r.RunChunks(context.Background(), jobs, all); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	reg.WriteText(&b)
	text := b.String()
	for _, want := range []string{
		`ffr_campaign_chunk_seconds_count{backend="kernel"} ` + strconv.Itoa(len(all)),
		"ffr_campaign_lanes_per_batch " + strconv.Itoa(3*sim.Lanes),
	} {
		if !strings.Contains(text, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// lintExposition runs scripts/metrics-lint.sh over a rendered exposition,
// so the repo's Prometheus-text gate covers the campaign families without
// standing up an HTTP listener.
func lintExposition(t *testing.T, text string) {
	t.Helper()
	script := filepath.Join("..", "..", "scripts", "metrics-lint.sh")
	if _, err := os.Stat(script); err != nil {
		t.Fatalf("metrics-lint script: %v", err)
	}
	if _, err := exec.LookPath("sh"); err != nil {
		t.Skipf("sh unavailable: %v", err)
	}
	cmd := exec.Command("sh", script)
	cmd.Stdin = strings.NewReader(text)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("metrics-lint failed: %v\n%s\nexposition:\n%s", err, out, text)
	}
}

// TestCampaignMetricsUnchangedResults pins that instrumentation is
// observation-only: the same campaign with and without a metrics registry
// produces identical failure counts.
func TestCampaignMetricsUnchangedResults(t *testing.T) {
	plain, jobs := newRunner(t, fault.RunnerConfig{ChunkJobs: sim.Lanes, Workers: 2})
	want, err := plain.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	metered, jobs2 := newRunner(t, fault.RunnerConfig{
		ChunkJobs: sim.Lanes, Workers: 2, Metrics: obs.NewRegistry(),
	})
	got, err := metered.Run(jobs2)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Failures) != len(got.Failures) {
		t.Fatalf("failure vector length %d vs %d", len(want.Failures), len(got.Failures))
	}
	for ff := range want.Failures {
		if want.Failures[ff] != got.Failures[ff] {
			t.Fatalf("FF %d: %d failures without metrics, %d with", ff, want.Failures[ff], got.Failures[ff])
		}
	}
}
