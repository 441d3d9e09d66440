package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"mrm"
	"mrm/internal/cluster"
	"mrm/internal/dist"
	"mrm/internal/llm"
	"mrm/internal/server"
)

// The mrmd-code workload: an in-process daemon with mrmdNodes HBM+MRM nodes
// at daemon defaults, driven through its HTTP handler (no sockets) by a
// single open-loop Poisson generator of SplitwiseCode requests, first below
// and then beyond the daemon's capacity.
const (
	mrmdNodes = 2
	// mrmdReps is how many fresh daemons a run drives at each rate; the
	// figures pool their requests.
	mrmdReps = 4
	// mrmdSetupsPerSession is how many extra, unloaded daemons an untraced
	// run builds after each session only to time their set-up. A daemon
	// builds in milliseconds, and timing them in one batch at the end of a
	// run catches the host at one speed, which the run's speed factor,
	// sampled across the run, does not correct.
	mrmdSetupsPerSession = 6
	// mrmdWarmup is the unmeasured lead-in of every session.
	mrmdWarmup = 300 * time.Millisecond
	// lateBound is the generator's allowed p99 lateness: a run whose sends
	// trail their schedule by more than this did not offer the stated load
	// and is reported incorrect. The generator shares the two processors
	// with the daemon, so its sends wait out scheduler preemption (about
	// 10ms) and, beyond capacity, the handler goroutines; healthy runs on a
	// 2-vCPU machine stay below 120ms.
	lateBound = 250 * time.Millisecond
)

// mrmdRate is one phase of the open-loop schedule.
type mrmdRate struct {
	name  string
	rate  float64 // offered req/s
	share float64 // fraction of the run's time budget
}

var mrmdRates = []mrmdRate{
	// The end-to-end figures are taken at 2400 req/s, so it gets the larger
	// share; the rest of the budget covers builds, warm-ups and drains.
	{name: "r600", rate: 600, share: 0.3},
	{name: "r2400", rate: 2400, share: 0.6},
}

// mrmdBuilder is cmd/mrmd's node builder at its defaults: Llama2-7B on a
// B200 with HBM+MRM memory, MaxBatch 8, 16-token pages, 30-minute KV
// lifetime hint.
func mrmdBuilder(tr *tracer) server.Builder {
	return func(int) (server.Node, error) {
		ms, err := buildMemory(mrm.HBMPlusMRM, tr)
		if err != nil {
			return server.Node{}, err
		}
		sim, err := cluster.NewSim(cluster.Config{
			Model: llm.Llama27B, Acc: llm.B200, Memory: ms.Manager,
			PageTokens: 16, MaxBatch: 8, KVLifetime: 30 * time.Minute,
			ScratchTier: ms.ScratchTier,
		})
		if err != nil {
			return server.Node{}, err
		}
		return server.Node{Sim: sim, Mem: ms.Manager, Arm: ms.ApplyFaults}, nil
	}
}

func newDaemon(tr *tracer) (*server.Server, error) {
	return server.New(server.Config{Build: mrmdBuilder(tr), Nodes: mrmdNodes, Seed: 1})
}

// reply is one request's fate as the client saw it.
type reply struct {
	status   int
	lat      time.Duration // response time measured from when it was due
	late     time.Duration // how late the generator sent it
	handler  time.Duration // time inside ServeHTTP
	tokens   int           // output tokens a 200 reply reports
	badReply string        // non-empty when a 200 reply fails verification
}

var classNames = [...]string{"interactive", "throughput", "best-effort"}

// submit sends one request through the daemon's handler.
func submit(h http.Handler, r cluster.Request, due time.Time) reply {
	s := reply{late: time.Since(due)}
	payload := fmt.Sprintf(`{"prompt_tokens":%d,"output_tokens":%d,"class":%q}`,
		r.PromptTokens, r.OutputTokens, classNames[r.Class])
	req := httptest.NewRequest(http.MethodPost, "/v1/submit", strings.NewReader(payload))
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, req)
	s.handler = time.Since(start)
	s.lat = time.Since(due)
	s.status = rec.Code
	if s.status != http.StatusOK {
		return s
	}
	var body struct {
		Tokens    int  `json:"tokens"`
		Truncated bool `json:"truncated"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		s.badReply = fmt.Sprintf("undecodable reply: %v", err)
		return s
	}
	s.tokens = body.Tokens
	if !body.Truncated && body.Tokens != r.OutputTokens {
		s.badReply = fmt.Sprintf("reply reports %d tokens for %d requested", body.Tokens, r.OutputTokens)
	}
	return s
}

// offer runs one open-loop phase: it draws the phase's seeded Poisson
// schedule and sends each request when it falls due, never waiting for
// replies. It returns once every reply is in, with the phase's wall time and
// the time spent generating its schedule.
func offer(h http.Handler, seed uint64, rate float64, dur time.Duration) ([]reply, time.Duration, time.Duration, error) {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	gen := cluster.Generator{
		Workload:   llm.SplitwiseCode,
		RatePerSec: rate,
		Mix:        fleetMix,
		MaxContext: llm.Llama27B.MaxContext,
	}
	genStart := time.Now()
	reqs, err := gen.Generate(dist.NewRNG(seed), n)
	genTime := time.Since(genStart)
	if err != nil {
		return nil, 0, 0, err
	}
	out := make([]reply, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i, r := range reqs {
		due := start.Add(r.Arrival)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, r cluster.Request, due time.Time) {
			defer wg.Done()
			out[i] = submit(h, r, due)
		}(i, r, due)
	}
	wg.Wait()
	return out, time.Since(start), genTime, nil
}

// phaseStats summarizes one phase.
type phaseStats struct {
	sent, ok, shed, timeout, errs int
	tokens                        int64 // output tokens of the 200 replies
	bad                           []string
	lats, lates, handlers         []float64 // ms
	wall                          time.Duration
	okRate                        float64 // 200 replies per host second
}

func summarize(res []reply, wall time.Duration) phaseStats {
	ps := phaseStats{wall: wall}
	for _, s := range res {
		ps.sent++
		ps.lates = append(ps.lates, ms(s.late))
		ps.handlers = append(ps.handlers, ms(s.handler))
		switch {
		case s.status == http.StatusOK:
			ps.ok++
			ps.tokens += int64(s.tokens)
			ps.lats = append(ps.lats, ms(s.lat))
			if s.badReply != "" {
				ps.bad = append(ps.bad, s.badReply)
			}
		case s.status == http.StatusTooManyRequests:
			ps.shed++
		case s.status == http.StatusGatewayTimeout:
			ps.timeout++
		case s.status >= 500:
			ps.errs++
		default:
			ps.bad = append(ps.bad, fmt.Sprintf("unexpected status %d", s.status))
		}
	}
	ps.okRate = float64(ps.ok) / wall.Seconds()
	return ps
}

// scrape reads the daemon's counters from GET /metrics.
func scrape(h http.Handler) (map[string]float64, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", rec.Code)
	}
	vals := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes()))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: %q: %w", sc.Text(), err)
		}
		vals[name] = v
	}
	return vals, sc.Err()
}

// session is one fresh daemon driven at one rate: built (timed), warmed
// up, measured, scraped and drained.
type session struct {
	rate    mrmdRate
	setup   time.Duration
	warm    phaseStats // the unmeasured warm-up, still checked
	ps      phaseStats // the measured phase
	metrics map[string]float64
	sent    int
	genTime time.Duration // generating the warm-up's and the phase's schedules
	gen     goStats       // runtime/metrics delta over the measured phase
	cpu     time.Duration // process CPU time from build to drain
	rssMB   float64       // peak resident set over the whole session
}

func runSession(rng *dist.RNG, rate mrmdRate, dur time.Duration, tr *tracer) (session, error) {
	s := session{rate: rate}
	cpu0 := cpuTime()
	start := time.Now()
	srv, err := newDaemon(tr)
	if err != nil {
		return s, err
	}
	s.setup = time.Since(start)
	defer srv.Shutdown(nil)
	h := srv.Handler()
	warm, warmWall, warmGen, err := offer(h, rng.Uint64(), rate.rate, mrmdWarmup)
	if err != nil {
		return s, err
	}
	s.sent += len(warm)
	s.warm = summarize(warm, warmWall)
	g0 := readGoStats()
	res, wall, gen, err := offer(h, rng.Uint64(), rate.rate, dur)
	if err != nil {
		return s, err
	}
	s.gen = readGoStats().minus(g0)
	s.genTime = warmGen + gen
	s.sent += len(res)
	s.ps = summarize(res, wall)
	if s.metrics, err = scrape(h); err != nil {
		return s, err
	}
	if err := srv.Shutdown(nil); err != nil {
		return s, fmt.Errorf("daemon drain: %w", err)
	}
	s.cpu = cpuTime() - cpu0
	return s, nil
}

// runMrmd measures the mrmd-code workload: mrmdReps rounds, each running a
// fresh daemon at every rate. Traced, every session runs twice, untraced
// and then traced, at half length.
func runMrmd(seed uint64, budget time.Duration, traced bool, log func(string, ...any)) (result, error) {
	out := result{Correct: true, Metrics: metricSet{}}
	rng := dist.NewRNG(seed)
	var plain, withTrace []session
	var cals []time.Duration
	var setups []float64
	tr := &tracer{}
	modes := []*tracer{nil}
	if traced {
		modes = []*tracer{nil, tr}
	}
	for rep := 0; rep < mrmdReps; rep++ {
		for _, r := range mrmdRates {
			dur := time.Duration(float64(budget) * r.share / mrmdReps / float64(len(modes)))
			for _, t := range modes {
				// Keep the previous daemon's garbage, and its pages, out of
				// this session and out of the peak RSS.
				debug.FreeOSMemory()
				cals = append(cals, calibrate())
				rss := startRSS()
				s, err := runSession(rng, r, dur, t)
				s.rssMB = rss.end()
				if err != nil {
					return out, fmt.Errorf("mrmd-code: %s: %w", r.name, err)
				}
				cals = append(cals, calibrate())
				if !traced {
					st, err := timeSetups(mrmdSetupsPerSession)
					if err != nil {
						return out, err
					}
					setups = append(setups, st...)
				}
				out.Attempted += int64(s.sent)
				check(&out, s, log)
				ps := s.ps
				log("mrmd-code: %s (%s): set-up %.4fs, sent %d, ok %d, shed %d, timeout %d, error %d, %.0f ok/s, p50 %.2fms p99 %.2fms, late p50 %.2fms p99 %.2fms, handler p50 %.2fms",
					r.name, traceKind(t), s.setup.Seconds(),
					ps.sent, ps.ok, ps.shed, ps.timeout, ps.errs, ps.okRate,
					quantile(ps.lats, 0.5), quantile(ps.lats, 0.99), quantile(ps.lates, 0.5), quantile(ps.lates, 0.99), quantile(ps.handlers, 0.5))
				if t != nil {
					withTrace = append(withTrace, s)
				} else {
					plain = append(plain, s)
				}
			}
		}
	}
	if !traced {
		// Below capacity every request is served, so a session's work, and
		// the KV state it leaves, is the same however fast the host runs;
		// beyond it, both follow the goodput. So memory is taken at 600.
		var rss []float64
		for _, s := range plain {
			if s.rate.name == "r600" {
				rss = append(rss, s.rssMB)
			}
		}
		high := pool(plain, "r2400")
		sp := speed(cals)
		log("mrmd-code: raw median setup %.4fs, r2400 %.0f ok/s, p50 %.2fms; speed factor %.3f",
			median(setups), high.okRate, quantile(high.lats, 0.5), sp)
		out.Metrics.add("setup_s", median(setups)*sp, "s")
		out.Metrics.add("replay_rps", high.okRate/sp, "1/s")
		out.Metrics.add("p50_ms", quantile(high.lats, 0.5)*sp, "ms")
		out.Metrics.add("p90_ms", quantile(high.lats, 0.9)*sp, "ms")
		out.Metrics.add("peak_rss_mb", median(rss), "MB")
		return out, nil
	}
	// Counts are per round: the traced sessions of a round, one per rate.
	m := out.Metrics
	reps := float64(mrmdReps)
	var handlers []float64
	for _, r := range mrmdRates {
		ps := pool(withTrace, r.name)
		handlers = append(handlers, ps.handlers...)
		log("mrmd-code: %s traced, per round: sent %.0f, ok %.0f, shed %.0f, timeout %.0f, error %.0f; p50 %.2fms p99 %.2fms; generator late p99 %.2fms",
			r.name, float64(ps.sent)/reps, float64(ps.ok)/reps, float64(ps.shed)/reps, float64(ps.timeout)/reps, float64(ps.errs)/reps,
			quantile(ps.lats, 0.5), quantile(ps.lats, 0.99), quantile(ps.lates, 0.99))
	}
	var gs goStats
	var genTime, cpu time.Duration
	var genReqs, tokens int64
	for _, s := range withTrace {
		gs = gs.plus(s.gen)
		genTime += s.genTime
		genReqs += int64(s.sent)
		tokens += s.warm.tokens + s.ps.tokens
		cpu += s.cpu
	}
	high, plainHigh := pool(withTrace, "r2400"), pool(plain, "r2400")
	st, _, _ := tr.totals()
	m.add("cluster.gen.requests", float64(genReqs)/reps, "count")
	m.add("cluster.gen.busy_ms", ms(genTime)/reps, "ms")
	m.add("dispatch.ms.p50", quantile(handlers, 0.5), "ms")
	m.add("dispatch.ms.p99", quantile(handlers, 0.99), "ms")
	m.add("dispatch.ok_frac", float64(high.ok)/float64(high.sent), "frac")
	m.add("cluster.sim.tokens_out", float64(tokens)/reps, "count")
	m.add("cluster.host_ns_per_token", float64(plainHigh.wall)/float64(plainHigh.tokens), "ns")
	m.add("cluster.self_ms", ms(cpu-genTime-st.busy())/reps, "ms")
	tr.layerMetrics(m, reps)
	addGoMetrics(m, gs, reps)
	m.add("trace.slowdown", plainHigh.okRate/high.okRate, "ratio")
	return out, nil
}

// timeSetups builds and drains k unloaded daemons, each from a heap returned
// to the OS as a session's daemon is, and returns their build times in
// seconds.
func timeSetups(k int) ([]float64, error) {
	var setups []float64
	for i := 0; i < k; i++ {
		debug.FreeOSMemory()
		start := time.Now()
		srv, err := newDaemon(nil)
		if err != nil {
			return nil, fmt.Errorf("mrmd-code: set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if err := srv.Shutdown(nil); err != nil {
			return nil, fmt.Errorf("mrmd-code: set-up drain: %w", err)
		}
	}
	return setups, nil
}

// pool merges the phase statistics of the sessions at the named rate.
func pool(ss []session, rate string) phaseStats {
	var ps phaseStats
	for _, s := range ss {
		if s.rate.name != rate {
			continue
		}
		ps.sent += s.ps.sent
		ps.ok += s.ps.ok
		ps.shed += s.ps.shed
		ps.timeout += s.ps.timeout
		ps.errs += s.ps.errs
		ps.tokens += s.ps.tokens
		ps.lats = append(ps.lats, s.ps.lats...)
		ps.lates = append(ps.lates, s.ps.lates...)
		ps.handlers = append(ps.handlers, s.ps.handlers...)
		ps.wall += s.ps.wall
	}
	ps.okRate = float64(ps.ok) / ps.wall.Seconds()
	return ps
}

// check verifies a session's accounting: every request sent got exactly
// one of the daemon's outcomes (a missing reply shows as status 0), the
// daemon counted exactly the requests the client sent, every 200 reply
// carried the requested tokens, and the generator kept to its schedule.
// Timeouts and server errors are failed requests; a 429 is the daemon's
// designed backpressure, not a failure.
func check(out *result, s session, log func(string, ...any)) {
	wrong := func(n int, format string, args ...any) {
		log("mrmd-code: %s: "+format, append([]any{s.rate.name}, args...)...)
		out.Correct = false
		out.Failed += int64(n)
	}
	if got := int(s.metrics["mrmd_requests_total"]); got != s.sent {
		wrong(1, "daemon counted %d requests, client sent %d", got, s.sent)
	}
	for _, ps := range []phaseStats{s.warm, s.ps} {
		if n := ps.timeout + ps.errs; n > 0 {
			log("mrmd-code: %s: %d timeouts, %d server errors", s.rate.name, ps.timeout, ps.errs)
			out.Failed += int64(n)
		}
		for _, b := range ps.bad {
			wrong(1, "%s", b)
		}
	}
	if late := quantile(s.ps.lates, 0.99); late > ms(lateBound) {
		wrong(0, "generator p99 lateness %.2fms exceeds %v; the run is invalid", late, lateBound)
	}
}
