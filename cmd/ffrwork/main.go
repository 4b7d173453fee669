// Command ffrwork is the distributed-campaign worker: it joins an ffrcoord
// coordinator, rebuilds the campaign locally from the wire spec (verifying
// plan and golden-trace fingerprints), then leases shard chunks, simulates
// them and posts back failure masks until the campaign completes.
//
// Usage:
//
//	ffrwork -coordinator http://host:9090 [-name worker-1]
//	        [-workers 0] [-max-chunks 0] [-heartbeat 0]
//	        [-log-level info] [-log-format text] [-trace spans.jsonl]
//	        [-metrics-addr :0] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Workers never receive jobs over the wire — only chunk indices; the
// campaign spec is deterministic, so every node derives identical plans.
// On SIGINT/SIGTERM the worker posts whatever chunks already finished and
// exits; its remaining leases expire at the coordinator and are re-leased.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/fabric"
	"repro/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ffrwork:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		coordinator = flag.String("coordinator", "", "coordinator base URL (e.g. http://127.0.0.1:9090)")
		name        = flag.String("name", "", "worker name, unique per campaign (default host-pid)")
		workers     = flag.Int("workers", 0, "local simulation goroutines (0 = GOMAXPROCS)")
		maxChunks   = flag.Int("max-chunks", 0, "maximum chunks requested per lease (0 = coordinator's cap)")
		heartbeat   = flag.Duration("heartbeat", 0, "lease heartbeat interval (0 = a third of the coordinator's TTL)")
		tracePath   = flag.String("trace", "", "write a JSONL span journal of lease cycles to this file")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /debug/pprof/ on this address (off when empty)")
		logFlags    = cli.RegisterLog()
		prof        = cli.RegisterProfiling()
	)
	flag.Parse()

	if err := cli.Check(
		cli.NoArgs("ffrwork"),
		cli.MinInt("ffrwork", "workers", *workers, 0),
		cli.MinInt("ffrwork", "max-chunks", *maxChunks, 0),
	); err != nil {
		return err
	}
	if *coordinator == "" {
		return cli.UsageErrorf("ffrwork", "-coordinator is required")
	}
	if *name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	logger, err := logFlags.Logger("ffrwork")
	if err != nil {
		return err
	}
	stopProfiles, err := prof.Start("ffrwork")
	if err != nil {
		return err
	}
	defer stopProfiles()
	tracer, closeTrace, err := cli.OpenTrace("ffrwork", *tracePath, "ffrwork")
	if err != nil {
		return err
	}
	defer closeTrace()
	reg := obs.NewRegistry()
	stopMetrics, err := cli.ServeMetrics("ffrwork", *metricsAddr, reg, logger)
	if err != nil {
		return err
	}
	defer stopMetrics()

	w, err := fabric.NewWorker(fabric.WorkerConfig{
		Name:        *name,
		Coordinator: *coordinator,
		Workers:     *workers,
		MaxChunks:   *maxChunks,
		Heartbeat:   *heartbeat,
		Log:         log.New(os.Stdout, "ffrwork: ", log.Ltime),
		Logger:      logger,
		Tracer:      tracer,
		Metrics:     reg,
	})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	err = w.Run(ctx)
	if errors.Is(err, context.Canceled) {
		fmt.Printf("ffrwork: interrupted after %d chunks (%s); leases will expire\n",
			w.Completed(), time.Since(start).Round(time.Millisecond))
		return nil
	}
	if err != nil {
		return err
	}
	fmt.Printf("ffrwork: done: %d chunks completed in %s\n",
		w.Completed(), time.Since(start).Round(time.Millisecond))
	return nil
}
