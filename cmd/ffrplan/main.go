// Command ffrplan runs the active-learning campaign planner: instead of
// fault-injecting every flip-flop, it closes the loop train →
// score-uncertainty → select-next-injection-batch → inject → retrain on any
// corpus scenario, stopping when the circuit-level FFR estimate converges or
// the injection budget is spent.
//
// Strategies: random (baseline), committee (model-zoo disagreement),
// uncertainty (bootstrap prediction variance), cluster (k-means feature-
// space coverage).
//
// Usage:
//
//	ffrplan [-scenario mac10ge/loopback] [-scale small|default] [-seed 1]
//	        [-strategy committee] [-model "k-NN"] [-n 0] [-budget 0.5]
//	        [-rounds 0] [-init 0] [-batch 0] [-delta 0] [-ci 0] [-patience 0]
//	        [-checkpoint loop.ffrp] [-resume] [-workers 0] [-eval] [-csv out.csv]
//	        [-fault-model seu|mbu:N|stuck0:D|stuck1:D]
//	        [-log-level info] [-log-format text] [-metrics-addr :0]
//	        [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -budget is the fraction of flip-flops the loop may measure; -delta and
// -ci enable early convergence (round-over-round FFR change and 95 % CI
// width of the measured mean). With -checkpoint the loop state persists
// after every round and the in-flight round checkpoints on the campaign
// runner, so Ctrl-C + -resume restarts bit-identically. -eval additionally
// runs the exhaustive ground-truth campaign and scores the adaptive
// estimate against it — the cost-vs-quality readout of the paper's promise.
package main

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro"
	"repro/internal/cli"
	"repro/internal/fault"
	"repro/internal/ml/metrics"
	"repro/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ffrplan:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scenario   = flag.String("scenario", "mac10ge/loopback", "corpus scenario to plan (family/workload)")
		scaleStr   = flag.String("scale", "small", "circuit/workload scale: small or default")
		seed       = flag.Int64("seed", 1, "planner seed (initial draw, bootstraps, clustering)")
		strategy   = flag.String("strategy", repro.StrategyCommittee, "acquisition strategy: random, committee, uncertainty or cluster")
		model      = flag.String("model", "k-NN", "estimate model (Table I row label)")
		n          = flag.Int("n", 0, "injections per measured flip-flop (0 = scenario default)")
		budget     = flag.Float64("budget", 0.5, "fraction of flip-flops the loop may measure (0,1]")
		rounds     = flag.Int("rounds", 0, "maximum planner rounds (0 = default)")
		initFFs    = flag.Int("init", 0, "round-0 batch size in flip-flops (0 = -batch)")
		batch      = flag.Int("batch", 0, "per-round batch size in flip-flops (0 = ~1/16 of the pool)")
		delta      = flag.Float64("delta", 0, "FFR-delta convergence tolerance (0 = disabled)")
		ciWidth    = flag.Float64("ci", 0, "95% CI width convergence tolerance (0 = disabled)")
		patience   = flag.Int("patience", 0, "consecutive converged rounds required (0 = default)")
		checkpoint = flag.String("checkpoint", "", "persist loop state to this file after every round")
		resume     = flag.Bool("resume", false, "resume from -checkpoint if it exists")
		workers    = flag.Int("workers", 0, "campaign worker goroutines (0 = GOMAXPROCS)")
		eval       = flag.Bool("eval", false, "also run the exhaustive campaign and score the adaptive estimate against it")
		csvOut     = flag.String("csv", "", "write the per-round trajectory to this CSV file")
		faultModel = flag.String("fault-model", "", "fault model: seu (default), mbu:N, stuck0:D, stuck1:D, each with optional @start-end window; falls back to FFR_FAULT_MODEL")
		mAddr      = flag.String("metrics-addr", "", "serve planner /metrics and /debug/pprof/ on this address during the run (off when empty)")
		logFlags   = cli.RegisterLog()
		prof       = cli.RegisterProfiling()
	)
	flag.Parse()

	if err := cli.Check(
		cli.NoArgs("ffrplan"),
		cli.MinInt("ffrplan", "n", *n, 0),
		cli.MinInt("ffrplan", "rounds", *rounds, 0),
		cli.MinInt("ffrplan", "init", *initFFs, 0),
		cli.MinInt("ffrplan", "batch", *batch, 0),
		cli.MinInt("ffrplan", "patience", *patience, 0),
		cli.MinInt("ffrplan", "workers", *workers, 0),
		cli.NonNegFloat("ffrplan", "delta", *delta),
		cli.NonNegFloat("ffrplan", "ci", *ciWidth),
		cli.Requires("ffrplan", "resume", "checkpoint", !*resume || *checkpoint != ""),
		cli.OneOf("ffrplan", "strategy", *strategy, repro.AdaptiveStrategyNames()...),
	); err != nil {
		return err
	}
	if *budget <= 0 || *budget > 1 {
		return cli.UsageErrorf("ffrplan", "-budget must be in (0,1] (got %g)", *budget)
	}
	fm := *faultModel
	if fm == "" {
		fm = os.Getenv("FFR_FAULT_MODEL")
	}
	fmodel, err := fault.ParseModel(fm)
	if err != nil {
		return cli.UsageErrorf("ffrplan", "bad -fault-model: %v", err)
	}
	logger, err := logFlags.Logger("ffrplan")
	if err != nil {
		return err
	}
	stopProfiles, err := prof.Start("ffrplan")
	if err != nil {
		return err
	}
	defer stopProfiles()
	reg := obs.NewRegistry()
	stopMetrics, err := cli.ServeMetrics("ffrplan", *mAddr, reg, logger)
	if err != nil {
		return err
	}
	defer stopMetrics()
	scale, err := repro.ParseCorpusScale(*scaleStr)
	if err != nil {
		return err
	}
	spec, err := repro.FindModel(*model)
	if err != nil {
		return err
	}
	sc, err := repro.FindCorpusScenario(*scenario)
	if err != nil {
		return err
	}

	study, err := repro.NewCorpusStudy(sc, repro.CorpusStudyConfig{
		Scale:           scale,
		InjectionsPerFF: *n,
		Model:           fmodel,
		Workers:         *workers,
		Metrics:         reg,
		Logger:          logger,
	})
	if err != nil {
		return err
	}
	fmt.Printf("scenario %s at scale %s: %d flip-flops, %d injections per measured FF, fault model %s\n",
		study.ScenarioID(), scale, study.NumFFs(), study.Config.InjectionsPerFF, fmodel)

	// Floor keeps the spent fraction at or below the request; tiny budgets
	// still measure at least one flip-flop (0 would mean "planner default").
	budgetFFs := int(*budget * float64(study.NumFFs()))
	if budgetFFs < 1 {
		budgetFFs = 1
	}
	var trajectory []repro.AdaptiveRound
	adaptive, err := repro.NewAdaptiveStudy(study, repro.AdaptiveStudyConfig{
		Strategy:   *strategy,
		Model:      spec,
		Seed:       *seed,
		InitFFs:    *initFFs,
		RoundFFs:   *batch,
		MaxRounds:  *rounds,
		BudgetFFs:  budgetFFs,
		DeltaTol:   *delta,
		CIWidthTol: *ciWidth,
		Patience:   *patience,
		Checkpoint: *checkpoint,
		Resume:     *resume,
		OnRound: func(r repro.AdaptiveRound) {
			trajectory = append(trajectory, r)
			resumed := ""
			if r.Resumed {
				resumed = " (resumed)"
			}
			fmt.Printf("round %2d: +%3d FFs -> %4d measured, %6d injections, FFR %.4f (CI %.4f..%.4f, delta %.4f)%s\n",
				r.Index, len(r.Selected), r.MeasuredFFs, r.Injections, r.FFR, r.CILo, r.CIHi, r.Delta, resumed)
		},
	})
	if err != nil {
		return err
	}

	// Ctrl-C / SIGTERM interrupts gracefully: the in-flight round's campaign
	// checkpoint and the loop checkpoint are flushed, and -resume picks the
	// loop back up bit-identically. A second signal force-quits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)

	start := time.Now()
	res, err := adaptive.RunContext(ctx)
	if err != nil {
		if errors.Is(err, repro.ErrCampaignInterrupted) && *checkpoint != "" {
			fmt.Fprintf(os.Stderr, "ffrplan: loop state saved to %s; rerun with -resume to continue\n", *checkpoint)
		}
		return err
	}

	exhaustive := study.NumFFs() * study.Config.InjectionsPerFF
	fmt.Printf("\n%s strategy finished in %v: %d rounds, converged=%v\n",
		*strategy, time.Since(start).Round(time.Millisecond), len(res.Rounds), res.Converged)
	fmt.Printf("measured %d of %d flip-flops — %d injections, %.1f%% of the exhaustive campaign\n",
		len(res.Measured), study.NumFFs(), res.TotalInjections,
		100*float64(res.TotalInjections)/float64(exhaustive))
	fmt.Printf("FFR estimate %.4f (measured-mean 95%% CI %.4f..%.4f)\n", res.FFR, res.CILo, res.CIHi)
	fmt.Printf("model fingerprint %016x, estimate fingerprint %016x\n",
		res.ModelFingerprint, res.EstimateFingerprint)

	if *csvOut != "" {
		if err := writeTrajectory(*csvOut, trajectory); err != nil {
			return err
		}
		fmt.Printf("wrote %d rounds to %s\n", len(trajectory), *csvOut)
	}
	if *eval {
		if err := evaluate(study, res); err != nil {
			return err
		}
	}
	return nil
}

// evaluate runs the exhaustive ground-truth campaign and scores the adaptive
// estimate against it: prediction quality on the flip-flops the planner
// never measured, and the circuit-level FFR error.
func evaluate(study *repro.Study, res *repro.AdaptiveResult) error {
	fmt.Printf("\nrunning exhaustive ground-truth campaign for -eval…\n")
	gt, err := study.RunGroundTruth()
	if err != nil {
		return err
	}
	measured := make(map[int]bool, len(res.Measured))
	for _, ff := range res.Measured {
		measured[ff] = true
	}
	var truth, pred []float64
	for ff := range gt.FDR {
		if !measured[ff] {
			truth = append(truth, gt.FDR[ff])
			pred = append(pred, res.Estimates[ff])
		}
	}
	var trueFFR float64
	for _, v := range gt.FDR {
		trueFFR += v
	}
	trueFFR /= float64(len(gt.FDR))
	if len(truth) == 0 {
		// -budget 1: everything was measured, there is nothing to predict.
		fmt.Printf("no unmeasured flip-flops left to score (budget covered the whole device)\n")
	} else {
		scores := metrics.Evaluate(truth, pred)
		fmt.Printf("unmeasured flip-flops (%d): %v, Kendall tau=%.3f\n",
			len(truth), scores, metrics.KendallTau(truth, pred))
	}
	fmt.Printf("circuit FFR: true %.4f vs adaptive estimate %.4f (error %+.4f)\n",
		trueFFR, res.FFR, res.FFR-trueFFR)
	return nil
}

func writeTrajectory(path string, rounds []repro.AdaptiveRound) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cw := csv.NewWriter(f)
	if err := cw.Write([]string{"round", "selected", "measured_ffs", "injections", "ffr", "ci_lo", "ci_hi", "delta", "resumed"}); err != nil {
		return err
	}
	for _, r := range rounds {
		if err := cw.Write([]string{
			strconv.Itoa(r.Index),
			strconv.Itoa(len(r.Selected)),
			strconv.Itoa(r.MeasuredFFs),
			strconv.Itoa(r.Injections),
			strconv.FormatFloat(r.FFR, 'g', -1, 64),
			strconv.FormatFloat(r.CILo, 'g', -1, 64),
			strconv.FormatFloat(r.CIHi, 'g', -1, 64),
			strconv.FormatFloat(r.Delta, 'g', -1, 64),
			strconv.FormatBool(r.Resumed),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
