package fabric

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/fault"
	"repro/internal/obs"
)

// WorkerConfig parameterizes a fabric worker.
type WorkerConfig struct {
	// Name identifies the worker to the coordinator; must be unique per
	// campaign.
	Name string
	// Coordinator is the coordinator base URL.
	Coordinator string
	// Client overrides the protocol client (tests); nil builds one from
	// Coordinator.
	Client *Client
	// Workers bounds the local simulation pool (0 = GOMAXPROCS).
	Workers int
	// MaxChunks caps chunks requested per lease (0 = coordinator's cap).
	MaxChunks int
	// Heartbeat overrides the heartbeat interval (0 = a third of the
	// coordinator's lease TTL).
	Heartbeat time.Duration
	// Log receives progress lines; nil is silent.
	Log *log.Logger
	// Logger optionally receives structured records (lease grants, chunk
	// completions) carrying the trace ID each lease cycle runs under; nil
	// disables structured logging.
	Logger *obs.Logger
	// Metrics optionally receives the local chunk runner's ffr_campaign_*
	// metric families; nil disables campaign metrics.
	Metrics *obs.Registry
	// Tracer optionally journals the worker's spans (one trace per lease
	// cycle: lease → simulate → complete); nil disables journaling while
	// trace IDs still propagate to the coordinator.
	Tracer *obs.Tracer
}

// Worker is the fabric worker loop: join, verify the campaign contract,
// then lease→simulate→complete until the coordinator reports done.
type Worker struct {
	cfg    WorkerConfig
	client *Client
	camp   *Campaign
	slog   *obs.Logger
	tracer *obs.Tracer

	mu   sync.Mutex
	held []int // chunks under lease, heartbeated until completed

	// Completed counts chunks this worker posted (including duplicates).
	completed int
}

// NewWorker validates the config; the campaign is materialized in Run (it
// needs the coordinator's spec).
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("fabric: worker needs a name")
	}
	client := cfg.Client
	if client == nil {
		if cfg.Coordinator == "" {
			return nil, fmt.Errorf("fabric: worker needs a coordinator URL")
		}
		client = NewClient(cfg.Coordinator)
	}
	return &Worker{
		cfg:    cfg,
		client: client,
		slog:   cfg.Logger.Component("worker").With(obs.F("worker", cfg.Name)),
		tracer: cfg.Tracer,
	}, nil
}

// Completed returns the number of chunk results this worker posted.
func (w *Worker) Completed() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.completed
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Log != nil {
		w.cfg.Log.Printf(format, args...)
	}
}

// hold/release maintain the heartbeat set.
func (w *Worker) hold(chunks []int) {
	w.mu.Lock()
	w.held = append(w.held, chunks...)
	w.mu.Unlock()
}

func (w *Worker) release(ci int) {
	w.mu.Lock()
	for i, c := range w.held {
		if c == ci {
			w.held = append(w.held[:i], w.held[i+1:]...)
			break
		}
	}
	w.mu.Unlock()
}

func (w *Worker) heldChunks() []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]int(nil), w.held...)
}

// Run executes the worker loop until the campaign completes, the context
// is canceled, or the campaign contract cannot be satisfied. On
// cancellation mid-chunk it posts whatever chunks finished before
// returning, so the lease is not wasted.
func (w *Worker) Run(ctx context.Context) error {
	joinCtx, joinSpan := w.tracer.Start(ctx, "fabric.join")
	join, err := w.client.JoinCtx(joinCtx, api.JoinRequest{Worker: w.cfg.Name})
	joinSpan.End()
	if err != nil {
		return fmt.Errorf("fabric: worker %s join: %w", w.cfg.Name, err)
	}
	camp, err := BuildCampaignObs(join.Spec, w.cfg.Workers, w.cfg.Metrics, w.cfg.Logger)
	if err != nil {
		return fmt.Errorf("fabric: worker %s materializing campaign: %w", w.cfg.Name, err)
	}
	if err := camp.CheckAgainst(join); err != nil {
		return err
	}
	w.camp = camp
	w.logf("worker %s joined: %s (%d chunks of %d jobs)",
		w.cfg.Name, camp.Spec.Scenario, join.NumChunks, join.ChunkJobs)

	hb := w.cfg.Heartbeat
	if hb <= 0 {
		hb = time.Duration(join.LeaseTTLMillis) * time.Millisecond / 3
	}
	if hb <= 0 {
		hb = time.Second
	}
	hbCtx, stopHB := context.WithCancel(context.Background())
	defer stopHB()
	go w.heartbeatLoop(hbCtx, hb)

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Each lease cycle (lease → simulate → complete) runs under one
		// fresh trace, propagated to the coordinator on every request it
		// makes, so one chunk's journey is followable across both
		// processes' logs and span journals.
		cycleCtx := obs.ContextWithTrace(ctx,
			obs.Trace{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID()})
		lease, err := w.client.LeaseCtx(cycleCtx, api.LeaseRequest{Worker: w.cfg.Name, Max: w.cfg.MaxChunks})
		if err != nil {
			return fmt.Errorf("fabric: worker %s lease: %w", w.cfg.Name, err)
		}
		if lease.Done {
			w.logf("worker %s done: campaign complete", w.cfg.Name)
			w.slog.Info("campaign complete")
			return nil
		}
		if len(lease.Chunks) == 0 {
			retry := time.Duration(lease.RetryMillis) * time.Millisecond
			if retry <= 0 {
				retry = DefaultRetryMillis * time.Millisecond
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(retry):
			}
			continue
		}
		if lease.Stolen > 0 {
			w.logf("worker %s stole %d straggler chunk(s)", w.cfg.Name, lease.Stolen)
		}
		w.slog.Info("lease granted",
			obs.F("chunks", lease.Chunks),
			obs.F("stolen", lease.Stolen),
			obs.F("trace_id", obs.TraceIDFrom(cycleCtx)))
		w.hold(lease.Chunks)
		runErr := w.runLease(cycleCtx, lease.Chunks)
		if runErr != nil {
			return runErr
		}
	}
}

// runLease simulates the leased chunks and posts each result. On
// cancellation it still posts the chunks that finished, then reports the
// context error.
func (w *Worker) runLease(ctx context.Context, chunks []int) error {
	simCtx, span := w.tracer.Start(ctx, "fabric.simulate", obs.F("chunks", len(chunks)))
	done, runErr := w.camp.Runner.RunChunks(simCtx, w.camp.Jobs, chunks)
	span.End()
	if runErr != nil && !errors.Is(runErr, fault.ErrInterrupted) {
		return fmt.Errorf("fabric: worker %s simulating: %w", w.cfg.Name, runErr)
	}
	for _, ci := range sortedChunks(done) {
		resp, err := w.client.CompleteCtx(ctx, api.CompleteRequest{
			Worker:   w.cfg.Name,
			Chunk:    ci,
			PlanHash: w.camp.PlanHashHex(),
			Masks:    api.EncodeMasks(done[ci]),
		})
		if err != nil {
			return fmt.Errorf("fabric: worker %s completing chunk %d: %w", w.cfg.Name, ci, err)
		}
		w.release(ci)
		w.mu.Lock()
		w.completed++
		w.mu.Unlock()
		w.slog.Info("chunk completed",
			obs.F("chunk", ci),
			obs.F("duplicate", resp.Duplicate),
			obs.F("trace_id", obs.TraceIDFrom(ctx)))
		if resp.Duplicate {
			w.logf("worker %s chunk %d was a duplicate", w.cfg.Name, ci)
		}
	}
	if runErr != nil {
		// Interrupted: the unfinished chunks stay held until their leases
		// expire; report the cancellation.
		return context.Cause(ctx)
	}
	return nil
}

// heartbeatLoop extends the worker's leases until stopped. Heartbeat
// failures are non-fatal (the lease simply expires); cancellations
// reported by the coordinator drop chunks from the held set so they stop
// being heartbeated.
func (w *Worker) heartbeatLoop(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		held := w.heldChunks()
		if len(held) == 0 {
			continue
		}
		resp, err := w.client.Heartbeat(api.HeartbeatRequest{Worker: w.cfg.Name, Chunks: held})
		if err != nil {
			w.logf("worker %s heartbeat failed: %v", w.cfg.Name, err)
			continue
		}
		for _, ci := range resp.Canceled {
			w.release(ci)
		}
	}
}

// sortedChunks returns map keys ascending, for deterministic posting.
func sortedChunks(done map[int][]uint64) []int {
	out := make([]int, 0, len(done))
	for ci := range done {
		out = append(out, ci)
	}
	sort.Ints(out)
	return out
}
