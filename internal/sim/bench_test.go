package sim_test

import (
	"fmt"
	"testing"

	"repro/internal/circuit"
	"repro/internal/sim"
)

func compiledMAC(b *testing.B) (*sim.Program, *circuit.MACBench) {
	b.Helper()
	nl, err := circuit.NewMAC10GE(circuit.DefaultMACConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := circuit.Synthesize(nl); err != nil {
		b.Fatal(err)
	}
	p, err := sim.Compile(nl)
	if err != nil {
		b.Fatal(err)
	}
	bench, err := circuit.BuildMACBench(p, circuit.DefaultMACBenchConfig())
	if err != nil {
		b.Fatal(err)
	}
	return p, bench
}

// BenchmarkEngineEvalCycle measures one evaluate+commit cycle of the packed
// engine on the full 1054-FF MAC — 64 concurrent simulations per op.
func BenchmarkEngineEvalCycle(b *testing.B) {
	p, _ := compiledMAC(b)
	e := sim.NewEngine(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Eval()
		e.Commit()
	}
}

// BenchmarkKernelEval measures one kernel Eval+Commit cycle on the full
// 1054-FF MAC at each batch width, reporting the cost per kernel
// instruction and per instruction·lane — the figures DefaultKernelWords
// is sized by.
func BenchmarkKernelEval(b *testing.B) {
	p, bench := compiledMAC(b)
	keep := append([]int(nil), bench.Monitors...)
	for _, lb := range bench.Stim.Loopbacks() {
		keep = append(keep, lb.Out)
	}
	k, err := sim.BuildKernel(p, sim.KernelConfig{KeepOutputs: keep})
	if err != nil {
		b.Fatal(err)
	}
	ops := float64(k.Stats().KernelOps)
	for _, words := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("W=%d", words), func(b *testing.B) {
			e := sim.NewKernelEngine(k, words)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Eval()
				e.Commit()
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(ns/ops, "ns/instr")
			b.ReportMetric(ns/(ops*float64(e.Lanes())), "ns/instr-lane")
		})
	}
}

// BenchmarkTestbenchRun measures one full 64-lane testbench pass (the unit
// of the fault campaign).
func BenchmarkTestbenchRun(b *testing.B) {
	p, bench := compiledMAC(b)
	e := sim.NewEngine(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(e, bench.Stim, sim.RunConfig{Monitors: bench.Monitors})
	}
	b.ReportMetric(float64(64*bench.Stim.Cycles()), "lane-cycles/op")
}

// BenchmarkScalarRun pins the cost ratio against the reference engine.
func BenchmarkScalarRun(b *testing.B) {
	p, bench := compiledMAC(b)
	e := sim.NewScalarEngine(p)
	monitors := bench.Monitors
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunScalar(e, bench.Stim, monitors, nil)
	}
}

// BenchmarkCompile measures netlist-to-program compilation.
func BenchmarkCompile(b *testing.B) {
	nl, err := circuit.NewMAC10GE(circuit.DefaultMACConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := circuit.Synthesize(nl); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Compile(nl); err != nil {
			b.Fatal(err)
		}
	}
}
