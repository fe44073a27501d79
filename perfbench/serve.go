package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/sitstats/sits/internal/cardest"
	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/datagen"
	"github.com/sitstats/sits/internal/exec"
	"github.com/sitstats/sits/internal/query"
	"github.com/sitstats/sits/internal/serve"
	"github.com/sitstats/sits/internal/sit"
)

const (
	// serveTail is the serve workload's tail percentile, printed but not a
	// metric: a run sends tens of thousands of requests, leaving hundreds
	// beyond p99.
	serveTail = 99
	// serveHot is the number of repeated (result-cache) request keys, and
	// serveHotFrac the share of requests drawn from them; the rest are
	// fresh keys answered from the plan cache.
	serveHot     = 2000
	serveHotFrac = 0.8
	// serveQuantum quantizes predicate constants.
	serveQuantum = 50
	// serveBudget is the daemon's shared memory budget.
	serveBudget = 64 << 20
)

// serveSpecs are the SITs the daemon builds at start (SweepFull, its
// default method).
var serveSpecs = []string{
	"T2.a | T1 JOIN T2 ON T1.jnext = T2.jprev",
	"T3.a | T2 JOIN T3 ON T2.jnext = T3.jprev",
	"T3.a | T1 JOIN T2 ON T1.jnext = T2.jprev JOIN T3 ON T2.jnext = T3.jprev",
}

// template is one request shape: a join expression and the columns that
// get a random quantized range each.
type template struct {
	query string
	expr  *query.Expr
	cols  []predCol
}

type predCol struct {
	table, attr string
	lo, hi      int64 // the column's value range in the generated data
}

var serveTemplates = []struct {
	query string
	cols  []string
}{
	{"T1 JOIN T2 ON T1.jnext = T2.jprev", []string{"T2.a"}},
	{"T1 JOIN T2 ON T1.jnext = T2.jprev", []string{"T2.a", "T1.b"}},
	{"T2 JOIN T3 ON T2.jnext = T3.jprev", []string{"T3.a"}},
	{"T1 JOIN T2 ON T1.jnext = T2.jprev JOIN T3 ON T2.jnext = T3.jprev", []string{"T3.a"}},
	{"T1 JOIN T2 ON T1.jnext = T2.jprev JOIN T3 ON T2.jnext = T3.jprev", []string{"T3.a", "T2.a"}},
}

// request is one generated estimation request.
type request struct {
	tmpl  int
	preds []cardest.Predicate
	key   string // template index + predicate text: the result-cache identity
	path  string // URL path and query string
}

// stream draws requests: serveHotFrac of them repeat one of the hot keys,
// the rest are keys never sent before.
type stream struct {
	rng   *rand.Rand
	tmpls []template
	hot   []request
	seen  map[string]bool
}

func (s *stream) random(tmpl int) request {
	t := s.tmpls[tmpl]
	r := request{tmpl: tmpl}
	var parts []string
	for _, c := range t.cols {
		steps := (c.hi - c.lo) / serveQuantum
		if steps < 1 {
			steps = 1
		}
		k := s.rng.Int63n(steps)
		lo := c.lo + serveQuantum*k
		hi := lo + serveQuantum*(1+s.rng.Int63n(steps-k))
		r.preds = append(r.preds, cardest.Predicate{Table: c.table, Attr: c.attr, Lo: lo, Hi: hi})
		parts = append(parts, fmt.Sprintf("%s.%s:%d:%d", c.table, c.attr, lo, hi))
	}
	pred := strings.Join(parts, ",")
	r.key = fmt.Sprintf("%d|%s", tmpl, pred)
	r.path = "/estimate?" + url.Values{"query": {t.query}, "pred": {pred}}.Encode()
	return r
}

// fresh returns a request whose key was never drawn before.
func (s *stream) fresh() request {
	for attempt := 0; ; attempt++ {
		tmpl := s.rng.Intn(len(s.tmpls))
		if attempt > 20 {
			tmpl = 1 // two predicates: a key space far larger than any run
		}
		r := s.random(tmpl)
		if !s.seen[r.key] {
			s.seen[r.key] = true
			return r
		}
	}
}

func (s *stream) next() request {
	if s.rng.Float64() < serveHotFrac {
		return s.hot[s.rng.Intn(len(s.hot))]
	}
	return s.fresh()
}

func (s *stream) take(n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// daemon is a running sitserve child.
type daemon struct {
	cmd     *osexec.Cmd
	base    string
	logPath string
	exited  chan error
}

// startDaemon launches sitserve on a free loopback port over the segment
// directory and waits until /healthz answers.
func startDaemon(bin, segDir, logPath string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := osexec.Command(bin, "-addr", addr, "-segments", segDir,
		"-build", strings.Join(serveSpecs, ";"), "-method", "sweepfull",
		"-mem-budget", fmt.Sprint(serveBudget), "-seed", "1")
	cmd.Stdout, cmd.Stderr = logf, logf
	// One thread of Go code, as the benchmark itself runs (see run).
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	// The child must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		_ = logf.Close() // nothing was written
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, logPath: logPath, exited: make(chan error, 1)}
	go func() {
		d.exited <- cmd.Wait()
		_ = logf.Close() // the log only serves error messages
	}()
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for deadline := now().Add(60 * time.Second); now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		select {
		case err := <-d.exited:
			d.exited <- err
			return nil, fmt.Errorf("sitserve exited during start-up (%v): %s", err, d.logTail())
		default:
		}
		resp, err := client.Get(d.base + "/healthz")
		if err != nil {
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body) // drained for connection reuse only
		_ = resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return d, nil
		}
	}
	d.stop()
	return nil, fmt.Errorf("sitserve did not become healthy: %s", d.logTail())
}

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(d.logPath)
	if len(b) > 500 {
		b = b[len(b)-500:]
	}
	return strings.TrimSpace(string(b))
}

// stop asks the daemon to shut down and kills it if it has not exited
// within five seconds; it returns once the process is gone.
func (d *daemon) stop() {
	// Signal and Kill fail only when the process has already exited, which
	// the exited channel reports either way.
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.exited:
		d.exited <- err
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		d.exited <- <-d.exited
	}
}

// daemonStats is the part of /stats the benchmark reads.
type daemonStats struct {
	PlanEvictions int64 `json:"plan_evictions"`
	Sheds         int64 `json:"sheds"`
	Registry      struct {
		MemUsed int64 `json:"mem_used"`
		MemPeak int64 `json:"mem_peak"`
	} `json:"registry"`
}

func (d *daemon) stats(c *http.Client) (daemonStats, error) {
	var st daemonStats
	resp, err := c.Get(d.base + "/stats")
	if err != nil {
		return st, err
	}
	defer func() { _ = resp.Body.Close() }() // read only
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats answered %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// reply is the part of an /estimate response the benchmark reads.
type reply struct {
	Cardinality float64 `json:"cardinality"`
	Tier        string  `json:"tier"`
	EstimateUS  float64 `json:"estimate_us"`
	status      int
}

// serveEnv is the serve set-up: the generated chain database as segments,
// the running daemon, an in-process Registry and Service built the same
// way, the request templates and the hot keys already sent once.
type serveEnv struct {
	dir    string
	cat    *data.Catalog
	d      *daemon
	client *http.Client
	reg    *sit.Registry
	svc    *serve.Service
	st     *stream
	relErr float64
	nRel   int
	// warm holds the requests sent during set-up.
	warm []request
}

// newClient is the benchmark's HTTP client: one connection, one request at
// a time, so client and daemon alternate on the host's CPUs and a run
// measures the request path, not how many CPUs the host lends the VM at the
// moment.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   5 * time.Second,
	}
}

// registryConfig mirrors sitserve's builder configuration for the flags the
// benchmark passes.
func registryConfig() sit.Config {
	cfg := sit.DefaultConfig()
	cfg.Seed = 1
	cfg.MemBudget = serveBudget
	return cfg
}

func setupServe(o options) (env *serveEnv, err error) {
	if o.sitserve == "" {
		return nil, fmt.Errorf("serve needs --sitserve")
	}
	// The default chain database, as for create; the seed drives the
	// request stream and the range queries.
	cfg := createConfig(o.smoke)
	memCat, err := datagen.ChainDB(cfg)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "perfbench-serve-")
	if err != nil {
		return nil, err
	}
	env = &serveEnv{dir: dir}
	made := env // the returns below replace env with nil
	defer func() {
		if err != nil {
			err = errors.Join(err, made.close())
		}
	}()
	segDir := filepath.Join(dir, "segments")
	if err := os.Mkdir(segDir, 0o755); err != nil {
		return nil, err
	}
	if env.cat, err = segmentCatalog(memCat, segDir); err != nil {
		return nil, err
	}
	if env.d, err = startDaemon(o.sitserve, segDir, filepath.Join(dir, "sitserve.log")); err != nil {
		return nil, err
	}
	env.client = newClient()
	if env.reg, err = sit.NewRegistry(env.cat, registryConfig()); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.seed))
	var rels []float64
	for _, text := range serveSpecs {
		spec, err := query.ParseSIT(text)
		if err != nil {
			return nil, err
		}
		s, err := env.reg.Get(spec, sit.SweepFull)
		if err != nil {
			return nil, err
		}
		ts, err := newTruthSet(env.cat, spec, exec.Options{}, rng, 1000)
		if err != nil {
			return nil, err
		}
		rel, err := ts.medianRelErr(s)
		if err != nil {
			return nil, err
		}
		rels = append(rels, 100*rel)
	}
	env.relErr, env.nRel = mean(rels), len(rels)
	if env.svc, err = newService(env.reg); err != nil {
		return nil, err
	}
	if env.st, err = newStream(env.cat, rng, o.smoke); err != nil {
		return nil, err
	}
	// Warm-up: send every hot key once so the timed phase starts with
	// filled caches.
	env.warm = env.st.hot
	for _, req := range env.warm {
		rep, err := env.get(req)
		if err != nil {
			return nil, err
		}
		if rep.status != http.StatusOK {
			return nil, fmt.Errorf("warm-up request %s answered %d", req.path, rep.status)
		}
	}
	return env, nil
}

// sortedPreds orders predicates by table, attribute and bounds.
func sortedPreds(ps []cardest.Predicate) []cardest.Predicate {
	out := append([]cardest.Predicate(nil), ps...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		if a.Attr != b.Attr {
			return a.Attr < b.Attr
		}
		if a.Lo != b.Lo {
			return a.Lo < b.Lo
		}
		return a.Hi < b.Hi
	})
	return out
}

// newService is the in-process serving layer with sitserve's defaults.
func newService(reg *sit.Registry) (*serve.Service, error) {
	return serve.NewService(reg, serve.Config{ShedQueue: 64})
}

func newStream(cat *data.Catalog, rng *rand.Rand, smoke bool) (*stream, error) {
	st := &stream{rng: rng, seen: map[string]bool{}}
	for _, t := range serveTemplates {
		e, err := query.ParseExpr(t.query)
		if err != nil {
			return nil, err
		}
		tm := template{query: t.query, expr: e}
		for _, c := range t.cols {
			ta := strings.SplitN(c, ".", 2)
			lo, hi, _, err := cat.MustTable(ta[0]).MinMax(ta[1])
			if err != nil {
				return nil, err
			}
			tm.cols = append(tm.cols, predCol{table: ta[0], attr: ta[1], lo: lo, hi: hi})
		}
		st.tmpls = append(st.tmpls, tm)
	}
	hot := serveHot
	if smoke {
		hot = 50
	}
	for len(st.hot) < hot {
		st.hot = append(st.hot, st.fresh())
	}
	return st, nil
}

// close stops the daemon and releases everything the set-up made, even
// after a failure part-way through it.
func (e *serveEnv) close() error {
	if e.d != nil {
		e.d.stop()
	}
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	var errs []error
	if e.reg != nil {
		errs = append(errs, e.reg.Close())
	}
	if e.cat != nil {
		errs = append(errs, closeCatalog(e.cat))
	}
	return errors.Join(append(errs, os.RemoveAll(e.dir))...)
}

// get sends one request.
func (e *serveEnv) get(req request) (reply, error) {
	var rep reply
	resp, err := e.client.Get(e.d.base + req.path)
	if err != nil {
		return rep, err
	}
	defer func() { _ = resp.Body.Close() }() // read only
	rep.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drained for connection reuse only
		return rep, nil
	}
	return rep, json.NewDecoder(resp.Body).Decode(&rep)
}

// outcome is one request as the client saw it. Times are offsets from the
// start of the loop.
type outcome struct {
	req        int // index into the loop's request list
	sent, done time.Duration
	ok         bool // answered 200 with a decodable body
}

// loop sends requests from the stream back to back over the one connection
// for d (at least one), each as soon as the previous one is answered, and
// returns them with their outcomes and replies.
func (e *serveEnv) loop(d time.Duration) ([]request, []outcome, []reply) {
	var (
		reqs    []request
		out     []outcome
		replies []reply
	)
	start := now()
	for len(out) == 0 || now().Sub(start) < d {
		req := e.st.next()
		o := outcome{req: len(reqs), sent: now().Sub(start)}
		rep, err := e.get(req)
		o.done = now().Sub(start)
		o.ok = err == nil && rep.status == http.StatusOK
		reqs, out, replies = append(reqs, req), append(out, o), append(replies, rep)
	}
	return reqs, out, replies
}

// verify checks every answered request against the in-process Service and
// counts every request sent; mismatches, errors, refusals and timeouts are
// failures.
func (e *serveEnv) verify(r *result, reqs []request, out []outcome, replies []reply, want map[string]float64) error {
	for _, o := range out {
		req := reqs[o.req]
		if !o.ok {
			r.check(fmt.Errorf("request %s failed (status %d)", req.path, replies[o.req].status))
			continue
		}
		w, ok := want[req.key]
		if !ok {
			est, _, err := e.svc.Estimate(cardest.SPJQuery{Expr: e.st.tmpls[req.tmpl].expr, Preds: req.preds})
			if err != nil {
				return err
			}
			w = est.Cardinality
			want[req.key] = w
		}
		if got := replies[o.req].Cardinality; math.Float64bits(got) != math.Float64bits(w) {
			r.check(fmt.Errorf("request %s: daemon answered %v, in-process service %v", req.path, got, w))
			continue
		}
		r.check(nil)
	}
	return nil
}

func runServe(o options, r *result) error {
	env, setupS, err := repeatSetup(o, func() (*serveEnv, error) { return setupServe(o) }, (*serveEnv).close)
	if err != nil {
		return err
	}
	defer closeEnv(r, env.close)
	baseline := runtime.NumGoroutine()
	before, err := env.d.stats(env.client)
	if err != nil {
		return err
	}
	pid := env.d.cmd.Process.Pid
	cpu0, err := childCPU(pid)
	if err != nil {
		return err
	}
	steal := noteSteal(r)
	reqs, out, replies := env.loop(time.Duration(o.seconds * float64(time.Second)))
	steal()
	cpu1, err := childCPU(pid)
	if err != nil {
		return err
	}
	if err := env.verify(r, reqs, out, replies, map[string]float64{}); err != nil {
		return err
	}
	var rtt []float64
	for _, oc := range out {
		if oc.ok {
			rtt = append(rtt, ms(oc.done-oc.sent))
		}
	}
	if len(rtt) == 0 {
		return fmt.Errorf("no request of %d was answered", len(out))
	}
	after, err := env.d.stats(env.client)
	if err != nil {
		return err
	}
	if !o.trace {
		n := len(rtt)
		r.set("setup_s", setupS, setupReps)
		r.set("cpu_ms_per_op", ms(cpu1-cpu0)/float64(n), n)
		r.set("latency_p50_ms", median(rtt), n)
		noteTiming(r, rtt, float64(n)/out[len(out)-1].done.Seconds(), serveTail)
		r.note("cpu_ms_per_op is the sitserve process's CPU time per answered request")
		r.set("rel_err_median_pct", env.relErr, env.nRel)
		rss, err := peakRSSMB(fmt.Sprint(pid))
		if err != nil {
			return err
		}
		r.set("max_rss_mb", rss, 1)
	} else {
		tierLayer(r, reqs, out, replies)
		r.set("serve.plan_evictions", float64(after.PlanEvictions-before.PlanEvictions), 1)
		r.set("serve.sheds", float64(after.Sheds-before.Sheds), 1)
		r.set("registry.mem_peak_mb", float64(after.Registry.MemPeak)/1e6, 1)
		if err := env.inProcess(r, reqs); err != nil {
			return err
		}
	}
	final, err := env.d.stats(env.client)
	if err != nil {
		return err
	}
	if final.Registry.MemUsed != 0 {
		r.fail(fmt.Errorf("daemon /stats mem_used is %d after the load, want 0", final.Registry.MemUsed))
	}
	env.client.CloseIdleConnections()
	checkGoroutines(r, baseline)
	return nil
}

// tierLayer reports the daemon's per-tier server-side time, tier shares and
// HTTP overhead of the timed loop.
func tierLayer(r *result, reqs []request, out []outcome, replies []reply) {
	us := map[string][]float64{}
	var overhead []float64
	n := 0
	for _, o := range out {
		if !o.ok {
			continue
		}
		rep := replies[o.req]
		tier := strings.ReplaceAll(rep.Tier, "-", "_")
		us[tier] = append(us[tier], rep.EstimateUS)
		overhead = append(overhead, ms(o.done-o.sent)-rep.EstimateUS/1000)
		n++
	}
	for _, t := range tierKeys {
		v := us[t]
		if len(v) > 0 {
			r.set("serve."+t+"_us.p50", nearestRank(v, 50), len(v))
			r.set("serve."+t+"_us.p99", nearestRank(v, 99), len(v))
		}
		r.set("serve."+t+"_frac", float64(len(v))/float64(n), n)
	}
	v, c := medianOf(overhead)
	r.set("serve.http_overhead_ms.p50", v, c)
}

// inProcess replays the warm-up and the timed stream against a fresh
// in-process Service over the same Registry, once untraced and once with
// spans around query.ParseExpr and serve.Service.Estimate, and measures
// cardest's prepare and execute phases on the same requests. Every
// in-process answer must equal the daemon's reference.
// estimateSpan names a serve.Service.Estimate span by the tier that
// answered; built once, so that naming a span allocates nothing.
var estimateSpan = func() map[serve.Tier]string {
	m := map[serve.Tier]string{}
	for _, t := range []serve.Tier{serve.TierResult, serve.TierPlan, serve.TierCold} {
		m[t] = "serve.Service.Estimate/" + strings.ReplaceAll(t.String(), "-", "_")
	}
	return m
}()

func (e *serveEnv) inProcess(r *result, reqs []request) error {
	replay := func(on *tracer) ([]float64, error) {
		svc, err := newService(e.reg)
		if err != nil {
			return nil, err
		}
		all := append(append([]request(nil), e.warm...), reqs...)
		var lat []float64
		off := newTracer(false)
		for i, req := range all {
			// The warm-up fills the caches untraced, as set-up does.
			tr := off
			if i >= len(e.warm) {
				tr = on
			}
			tr.beginOp()
			t0 := now()
			var expr *query.Expr
			if err := tr.do("query.ParseExpr", func() error {
				var err error
				expr, err = query.ParseExpr(e.st.tmpls[req.tmpl].query)
				return err
			}); err != nil {
				return nil, err
			}
			var tier serve.Tier
			id := tr.start("serve.Service.Estimate")
			_, tier, err := svc.Estimate(cardest.SPJQuery{Expr: expr, Preds: req.preds})
			tr.end(id)
			if err != nil {
				return nil, err
			}
			tr.rename(id, estimateSpan[tier])
			if i >= len(e.warm) {
				lat = append(lat, ms(now().Sub(t0)))
			}
		}
		return lat, nil
	}
	off, err := replay(newTracer(false))
	if err != nil {
		return err
	}
	tr := newTracer(true)
	on, err := replay(tr)
	if err != nil {
		return err
	}
	r.set("trace.overhead_pct", (median(on)/median(off)-1)*100, len(on))
	v, n := medianOf(tr.durations("query.ParseExpr"))
	r.set("query.parse_us.p50", v*1000, n)
	for _, t := range tierKeys {
		v, n := medianOf(tr.durations("serve.Service.Estimate/" + t))
		r.set("serve.estimate_us."+t, v*1000, n)
	}

	// cardest's two phases on the same requests, with an estimator over the
	// registry's served SITs.
	err = e.reg.WithBuilder(func(b *sit.Builder) error {
		est, err := cardest.New(b)
		if err != nil {
			return err
		}
		sits, _ := e.reg.Snapshot()
		for _, s := range sits {
			if err := est.Register(s); err != nil {
				return err
			}
		}
		for _, req := range reqs {
			expr := e.st.tmpls[req.tmpl].expr
			// The service orders a conjunction's predicates before preparing;
			// do the same so the answers are comparable bit for bit.
			preds := sortedPreds(req.preds)
			var plan *cardest.EstimatorPlan
			if err := tr.do("cardest.Estimator.Prepare", func() error {
				var err error
				plan, err = est.Prepare(expr, cardest.Columns(preds))
				return err
			}); err != nil {
				return err
			}
			var out cardest.Estimate
			if err := tr.do("cardest.EstimatorPlan.Execute", func() error {
				var err error
				out, err = plan.Execute(preds)
				return err
			}); err != nil {
				return err
			}
			ref, _, err := e.svc.Estimate(cardest.SPJQuery{Expr: expr, Preds: req.preds})
			if err != nil {
				return err
			}
			if math.Float64bits(out.Cardinality) != math.Float64bits(ref.Cardinality) {
				r.fail(errors.New("cardest plan execution differs from serve.Service on " + req.path))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v, n = medianOf(tr.durations("cardest.Estimator.Prepare"))
	r.set("cardest.prepare_us.p50", v*1000, n)
	v, n = medianOf(tr.durations("cardest.EstimatorPlan.Execute"))
	r.set("cardest.execute_us.p50", v*1000, n)
	return nil
}
