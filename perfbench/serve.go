package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/persist"
	"repro/internal/serve"
)

// The serve workload: an untimed fixture in this process trains k-NN and
// SVR on the MAC ground truth of the injected flip-flops and saves them;
// every repetition then starts a fresh server process (persist.Load,
// serve.New, listen: the timed set-up), drives it from this process and
// stops it. The traffic is the two kinds the repository has, each timed in
// phases of its own so that no assumed blend weights them:
//
//   - the estimation flow's own use: the feature rows of the flip-flops
//     that were not injected, each sent once, in one batched request per
//     model; then the same requests again, which the cache answers;
//   - cmd/ffrload's: single uniformly random vectors against one model at a
//     time, which never repeat and so always miss the cache, open loop at
//     fixed rates and closed loop from nproc callers.

// servedModels are the artifacts the fixture trains, by serving name.
var servedModels = []struct {
	name    string
	factory ml.Factory
}{
	{"knn", core.KNNModel},
	{"svr", core.SVRModel},
}

// Load shape. The open-loop rates reach the capacity of a 2-core host with
// client and server on it; closedRequests per model make the closed-loop
// script whose duration is the workload's wall_s. The warm-up requests,
// sent first and not measured, open the connections.
var serveRates = []float64{500, 1000, 2000, 4000}

const (
	warmRequests   = 100  // unmeasured closed-loop requests per model and repetition
	openRequests   = 200  // requests per open-loop rate and model per repetition
	closedRequests = 4000 // closed-loop requests per model
	// p99LimitMS is the latency limit serve_max_rps is judged against.
	p99LimitMS = 10.0
	// requestTimeout turns a stalled request into a counted failure.
	requestTimeout = 5 * time.Second
	// checkEvery samples the random-vector responses compared against
	// in-process predictions; every estimation-flow response is compared.
	checkEvery = 3
)

// fixture is what the serve repetitions share: the artifacts as the server
// loads them, and the feature rows of the flip-flops not injected.
type fixture struct {
	arts    map[string]*persist.Artifact
	heldOut [][]float64
	width   int
}

// buildFixture runs the MAC ground truth at the estimate workload's budget,
// trains the served models on the paper's 50% training split (the injected
// flip-flops) and saves them, with spans around every Fit and Save when
// traced.
func (b *bench) buildFixture() (*fixture, error) {
	var rec *recorder
	if b.trace {
		rec = newRecorder("perfbench")
	}
	ctx := context.Background()
	st, err := core.NewStudy(macConfig(b.seed, estimateInjections))
	if err != nil {
		return nil, err
	}
	if _, err := st.RunGroundTruth(); err != nil {
		return nil, err
	}
	X, y := st.FeatureRows(), st.Campaign.FDR
	splits, err := ml.StratifiedShuffleSplits(y, 1, core.PaperTrainFrac, core.PaperStratifyBins, mlSeed(b.seed))
	if err != nil {
		return nil, err
	}
	trX, trY := ml.Gather(X, y, splits[0].Train)
	heldOut, _ := ml.Gather(X, y, splits[0].Test)
	fx := &fixture{arts: make(map[string]*persist.Artifact), heldOut: heldOut, width: len(X[0])}
	var size float64
	for _, m := range servedModels {
		model := m.factory()
		if err := rec.step(ctx, "ml.fit."+m.name, func() error { return model.Fit(trX, trY) }); err != nil {
			return nil, err
		}
		a := persist.New(m.name, model, features.Names())
		a.Circuit, a.Workload = st.CircuitName, st.WorkloadName
		a.TrainRows, a.TrainHash = len(trX), persist.DataFingerprint(trX, trY)
		path := filepath.Join(b.dir, m.name+".ffrm")
		if err := rec.step(ctx, "persist.save", func() error { return persist.Save(path, a) }); err != nil {
			return nil, err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		size += float64(fi.Size())
		if fx.arts[m.name], err = persist.Load(path); err != nil {
			return nil, err
		}
	}
	if b.trace {
		recs, err := rec.journal()
		if err != nil {
			return nil, err
		}
		dur, _ := spanTimes(recs)
		b.layers["persist.artifact_bytes"] = []float64{size}
		b.layers["persist.save_s"] = []float64{dur["persist.save"]}
		for _, m := range servedModels {
			b.layers["ml.fit_s."+m.name] = []float64{dur["ml.fit."+m.name]}
		}
	}
	return fx, nil
}

// serverResult is what a server child reports after it stops.
type serverResult struct {
	SetupS float64            `json:"setup_s"`
	Layers map[string]float64 `json:"layers,omitempty"`
}

// runServer is the server child: load the artifacts, build the server,
// listen, announce "READY <addr>" and serve until standard input closes.
func runServer(dir string, traced bool) error {
	var rec *recorder
	if traced {
		rec = newRecorder("perfbench-serve")
	}
	ctx, root := rec.tracer().Start(context.Background(), rootSpan)
	t0 := time.Now()
	var arts []*persist.Artifact
	err := rec.step(ctx, "persist.load", func() error {
		for _, m := range servedModels {
			a, err := persist.Load(filepath.Join(dir, m.name+".ffrm"))
			if err != nil {
				return err
			}
			arts = append(arts, a)
		}
		return nil
	})
	if err != nil {
		return err
	}
	var srv *serve.Server
	err = rec.step(ctx, "serve.new", func() error {
		srv = serve.New(serve.Config{})
		for _, a := range arts {
			if err := srv.Add(a); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var ln net.Listener
	err = rec.step(ctx, "serve.listen", func() (err error) {
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return err
		}
		return srv.Ready()
	})
	if err != nil {
		return err
	}
	setup := time.Since(t0).Seconds()
	root.End()

	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	fmt.Printf("READY %s\n", ln.Addr())
	io.Copy(io.Discard, os.Stdin) // the parent closes stdin to stop the server
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutdownErr := hs.Shutdown(sctx)
	if err := <-done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if shutdownErr != nil {
		return shutdownErr
	}
	res := serverResult{SetupS: setup}
	if traced {
		recs, err := rec.journal()
		if err != nil {
			return err
		}
		dur, self := spanTimes(recs)
		res.Layers = map[string]float64{
			"persist.load_s":      dur["persist.load"],
			"trace.self_coverage": coverage(dur, self),
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// request is one generated predict request.
type request struct {
	model  string
	vecs   [][]float64
	single bool
	body   []byte
}

func newRequest(model string, vecs [][]float64, single bool) (request, error) {
	r := request{model: model, vecs: vecs, single: single}
	req := api.PredictRequest{Model: model, Vectors: vecs}
	if single {
		req.Vector, req.Vectors = vecs[0], nil
	}
	var err error
	r.body, err = json.Marshal(req)
	return r, err
}

// ffrloadRequests draws n single-vector requests for one model the way
// cmd/ffrload does with -batch 1: every feature uniform in [0, 1).
func ffrloadRequests(rng *rand.Rand, model string, width, n int) ([]request, error) {
	out := make([]request, n)
	for i := range out {
		x := make([]float64, width)
		for f := range x {
			x[f] = rng.Float64()
		}
		var err error
		if out[i], err = newRequest(model, [][]float64{x}, true); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// reply is the outcome of one sent request.
type reply struct {
	latMS  float64 // from when it was due; +Inf when it failed
	lateMS float64 // how late the generator sent it
	ok     bool
	body   []byte // kept for sampled requests
}

// client sends predict requests over at most nproc connections.
type client struct {
	url  string
	http *http.Client
}

func newClient(addr string) *client {
	n := runtime.NumCPU()
	tr := &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}
	return &client{url: "http://" + addr, http: &http.Client{Transport: tr, Timeout: requestTimeout}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) send(r *request, due time.Time, keep bool) reply {
	out := reply{lateMS: float64(time.Since(due)) / 1e6, latMS: math.Inf(1)}
	resp, err := c.http.Post(c.url+"/v1/predict", "application/json", bytes.NewReader(r.body))
	if err != nil {
		return out
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return out
	}
	out.ok = true
	out.latMS = float64(time.Since(due)) / 1e6
	if keep {
		out.body = body
	}
	return out
}

// openLoop sends reqs on a fixed schedule at rate per second, each in its
// own goroutine, whether or not earlier ones have answered.
func (c *client) openLoop(reqs []request, rate float64) []reply {
	out := make([]reply, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = c.send(&reqs[i], due, i%checkEvery == 0)
		}()
	}
	wg.Wait()
	return out
}

// closedLoop sends reqs from nproc callers that each wait for a reply
// before sending their next request; it returns the replies and the time
// the whole script took.
func (c *client) closedLoop(reqs []request) ([]reply, float64) {
	out := make([]reply, len(reqs))
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				k := i
				i++
				next.Unlock()
				if k >= len(reqs) {
					return
				}
				out[k] = c.send(&reqs[k], time.Now(), k%checkEvery == 0)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start).Seconds()
}

// scrape reads the counters of the server's /metrics exposition.
func (c *client) scrape() (map[string]float64, error) {
	resp, err := c.http.Get(c.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && !strings.HasPrefix(f[0], "#") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] = v
			}
		}
	}
	return out, sc.Err()
}

// verify compares every kept response with an in-process Predict on the
// same artifact, bit for bit.
func verify(arts map[string]*persist.Artifact, reqs []request, replies []reply) error {
	for i, rep := range replies {
		if rep.body == nil {
			continue
		}
		var resp api.PredictResponse
		if err := json.Unmarshal(rep.body, &resp); err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		r := &reqs[i]
		if len(resp.Predictions) != len(r.vecs) {
			return fmt.Errorf("request %d: %d predictions for %d vectors", i, len(resp.Predictions), len(r.vecs))
		}
		for j, x := range r.vecs {
			if want := arts[r.model].Model.Predict(x); resp.Predictions[j] != want {
				return fmt.Errorf("request %d vector %d: served %v, in-process %v", i, j, resp.Predictions[j], want)
			}
		}
		if r.single && (resp.Prediction == nil || *resp.Prediction != resp.Predictions[0]) {
			return fmt.Errorf("request %d: single prediction field disagrees", i)
		}
	}
	return nil
}

// server is a running server child.
type server struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout *bufio.Reader
	addr   string
	start  time.Time
}

func startServer(self, dir string, traced bool) (*server, error) {
	args := []string{"child", "server", "-dir", dir}
	if traced {
		args = append(args, "-traced")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, stdin: stdin, stdout: bufio.NewReader(stdout), start: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	line, err := s.stdout.ReadString('\n')
	if addr, ok := strings.CutPrefix(strings.TrimSpace(line), "READY "); err == nil && ok {
		s.addr = addr
		return s, nil
	}
	s.kill()
	return nil, fmt.Errorf("server child did not become ready: %q %v", line, err)
}

// stop closes the server's standard input, reads its result and waits for
// it to exit.
func (s *server) stop() (serverResult, procUsage, error) {
	s.stdin.Close()
	var res serverResult
	dec := json.NewDecoder(s.stdout)
	decErr := dec.Decode(&res)
	waitErr := s.cmd.Wait()
	u := usageOf(s.cmd, time.Since(s.start))
	if waitErr != nil {
		return res, u, waitErr
	}
	return res, u, decErr
}

func (s *server) kill() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
}

// handlerMicros drives Server.Handler() in process, with no network, over
// the request script and returns the median microseconds per request.
func handlerMicros(arts map[string]*persist.Artifact, reqs []request) (float64, error) {
	srv := serve.New(serve.Config{})
	for _, m := range servedModels {
		if err := srv.Add(arts[m.name]); err != nil {
			return 0, err
		}
	}
	h := srv.Handler()
	us := make([]float64, 0, len(reqs))
	for i := range reqs {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(reqs[i].body))
		rr := httptest.NewRecorder()
		t := time.Now()
		h.ServeHTTP(rr, req)
		us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
		if rr.Code != http.StatusOK {
			return 0, fmt.Errorf("in-process request %d: status %d", i, rr.Code)
		}
	}
	return median(us), nil
}

// predictMicros times in-process Predict per row for each served model.
func predictMicros(arts map[string]*persist.Artifact, rows [][]float64) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range servedModels {
		a := arts[m.name]
		t := time.Now()
		for _, x := range rows {
			a.Model.Predict(x)
		}
		out[m.name] = float64(time.Since(t).Nanoseconds()) / 1e3 / float64(len(rows))
	}
	return out
}

// phase pools one open-loop phase (one rate, one model) over repetitions:
// latency from due time, generator lateness, and latency in the first and
// last quarter of each repetition's phase.
type phase struct{ lat, late, head, tail []float64 }

// runServe measures the serve workload. A server that fails to start,
// answer /metrics or stop is a correctness failure and ends the run;
// refused and timed-out requests count in fail_frac.
func (b *bench) runServe() error {
	fx, err := b.buildFixture()
	if err != nil {
		return fmt.Errorf("serve fixture: %w", err)
	}
	rng := rand.New(rand.NewSource(b.seed))
	// Per model: warm-up, estimation flow, one open-loop script per rate,
	// closed-loop script.
	warm := make(map[string][]request)
	flow := make(map[string]request)
	open := make(map[string][][]request)
	closed := make(map[string][]request)
	var closedAll []request
	for _, m := range servedModels {
		if warm[m.name], err = ffrloadRequests(rng, m.name, fx.width, warmRequests); err != nil {
			return err
		}
		if flow[m.name], err = newRequest(m.name, fx.heldOut, false); err != nil {
			return err
		}
		for range serveRates {
			reqs, err := ffrloadRequests(rng, m.name, fx.width, openRequests)
			if err != nil {
				return err
			}
			open[m.name] = append(open[m.name], reqs)
		}
		if closed[m.name], err = ffrloadRequests(rng, m.name, fx.width, closedRequests); err != nil {
			return err
		}
		closedAll = append(closedAll, closed[m.name]...)
	}

	phases := make(map[string]*phase) // by "<rate>.<model>"
	var tracedWall, publicWall []float64
	start := time.Now()
	for i := 0; i < minReps || time.Since(start).Seconds() < b.seconds; i++ {
		isTraced := b.trace && i%2 == 1
		b.attempted++
		s, err := startServer(b.self, b.dir, isTraced)
		if err != nil {
			b.failed++
			b.fail("repetition %d: %v", i, err)
			break
		}
		c := newClient(s.addr)
		series := make(map[string]float64) // this repetition's summary values
		for _, m := range servedModels {
			replies, _ := c.closedLoop(warm[m.name])
			b.tally(fx.arts, warm[m.name], replies)
		}
		// The estimation flow, twice. The first pass misses the cache (a
		// batch is looked up before any of its vectors is stored); the
		// second pass should be answered by it: serve.cache_hit_ratio.
		var before map[string]float64
		var scrapeErr error
		for pass, name := range []string{"serve_flow_ms.", "serve_flow_hit_ms."} {
			if pass == 1 {
				before, scrapeErr = c.scrape()
			}
			for _, m := range servedModels {
				r := flow[m.name]
				rep := c.send(&r, time.Now(), true)
				b.tally(fx.arts, []request{r}, []reply{rep})
				series[name+m.name] = rep.latMS
			}
		}
		if scrapeErr == nil {
			after, err := c.scrape()
			scrapeErr = err
			if err == nil && isTraced {
				hits := after["ffr_serve_cache_hits_total"] - before["ffr_serve_cache_hits_total"]
				misses := after["ffr_serve_cache_misses_total"] - before["ffr_serve_cache_misses_total"]
				b.layers["serve.cache_hit_ratio"] = append(b.layers["serve.cache_hit_ratio"], hits/(hits+misses))
			}
		}
		for ri, rate := range serveRates {
			for _, m := range servedModels {
				reqs := open[m.name][ri]
				replies := c.openLoop(reqs, rate)
				b.tally(fx.arts, reqs, replies)
				key := fmt.Sprintf("%g.%s", rate, m.name)
				ph := phases[key]
				if ph == nil {
					ph = &phase{}
					phases[key] = ph
				}
				ms := make([]float64, len(replies))
				q := len(replies) / 4
				for k, r := range replies {
					ms[k] = r.latMS
					ph.lat = append(ph.lat, r.latMS)
					ph.late = append(ph.late, r.lateMS)
					if k < q {
						ph.head = append(ph.head, r.latMS)
					} else if k >= len(replies)-q {
						ph.tail = append(ph.tail, r.latMS)
					}
				}
				series["serve_p50_ms@"+key] = percentile(ms, 50)
				series["serve_p99_ms@"+key] = percentile(ms, 99)
			}
		}
		var wall float64
		for _, m := range servedModels {
			replies, w := c.closedLoop(closed[m.name])
			b.tally(fx.arts, closed[m.name], replies)
			wall += w
		}
		var counters map[string]float64
		if scrapeErr == nil {
			counters, scrapeErr = c.scrape()
		}
		c.close()
		res, u, err := s.stop()
		if err == nil {
			err = scrapeErr
		}
		if err != nil {
			b.failed++
			b.fail("repetition %d: server: %v", i, err)
			break
		}
		if isTraced {
			tracedWall = append(tracedWall, wall)
			for k, v := range res.Layers {
				b.layers[k] = append(b.layers[k], v)
			}
			b.layers["serve.throttled"] = append(b.layers["serve.throttled"], counters["ffr_serve_rejected_total"])
			continue
		}
		publicWall = append(publicWall, wall)
		for k, v := range series {
			b.add(k, v)
		}
		b.add("wall_s", wall)
		b.add("setup_s", res.SetupS)
		b.add("peak_rss_mb", u.rssMB)
		b.add("cpu_s", u.cpuS)
	}
	if len(publicWall) == 0 {
		return nil
	}

	for _, m := range servedModels {
		b.about["serve_flow_ms."+m.name] = fmt.Sprintf("%d held-out rows in one request, first pass", len(fx.heldOut))
		b.about["serve_flow_hit_ms."+m.name] = "the same request again, answered by the cache"
	}
	maxRPS := 0.0
	for _, rate := range serveRates {
		meets := true
		for _, m := range servedModels {
			key := fmt.Sprintf("%g.%s", rate, m.name)
			ph := phases[key]
			b.about["serve_p50_ms@"+key] = "per repetition, from when each request was due"
			b.about["serve_p99_ms@"+key] = "per repetition, from when each request was due"
			p50, p99 := percentile(ph.lat, 50), percentile(ph.lat, 99)
			growing := median(ph.tail) > 2*median(ph.head) && median(ph.tail) > p99LimitMS/2
			meets = meets && p99 <= p99LimitMS && !growing
			b.notes = append(b.notes, fmt.Sprintf(
				"open loop %5.0f req/s %s: serve_p50_ms %.3f  serve_p99_ms %.3f  (n=%d, %d beyond p99; backlog growing: %v)  generator late p99 %.3f ms, max %.3f ms",
				rate, m.name, p50, p99, len(ph.lat), len(ph.lat)/100, growing, percentile(ph.late, 99), percentile(ph.late, 100)))
		}
		if meets {
			maxRPS = rate
		}
	}
	b.add("serve_max_rps", maxRPS)
	b.notes = append(b.notes, fmt.Sprintf("p99 limit %.0f ms for every model; connections <= %d; wall_s is %d closed-loop random single-vector requests per model over %d callers",
		p99LimitMS, runtime.NumCPU(), closedRequests, runtime.NumCPU()))

	if b.trace {
		us, err := handlerMicros(fx.arts, closedAll)
		if err != nil {
			return err
		}
		b.layers["serve.handler_us"] = []float64{us}
		for tag, v := range predictMicros(fx.arts, fx.heldOut) {
			b.layers["ml.predict_us_per_row."+tag] = []float64{v}
		}
		if len(tracedWall) > 0 {
			b.layers["trace.overhead_s"] = []float64{median(tracedWall) - median(publicWall)}
		}
	}
	return nil
}

// tally counts a phase's requests and failures and checks its sampled
// responses against in-process predictions.
func (b *bench) tally(arts map[string]*persist.Artifact, reqs []request, replies []reply) {
	b.attempted += len(replies)
	for _, r := range replies {
		if !r.ok {
			b.failed++
		}
	}
	if err := verify(arts, reqs, replies); err != nil {
		b.fail("served != in-process: %v", err)
	}
}
