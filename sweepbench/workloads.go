package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"parbw/internal/engine"
	"parbw/internal/service"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlCold    = "cold-sweep"
	wlWarm    = "warm-hits"
	wlCluster = "cluster-sweep"
	wlLarge   = "large-p"
)

// workload is one traffic mix. Sweep workloads (grids set) send their
// grids, in turn, from one closed-loop client, each sweep against freshly
// booted nodes with empty stores. warm-hits (fill set) is the many-client
// mix served from a store the fill request filled.
type workload struct {
	name  string
	nodes int
	grids func(seed uint64) []service.RunRequest
	fill  func(seed uint64) service.RunRequest
}

var workloads = []workload{
	{name: wlCold, nodes: 1, grids: coldGridsFor},
	{name: wlWarm, nodes: 1, fill: warmFill},
	{name: wlCluster, nodes: 3, grids: coldGridsFor},
	{name: wlLarge, nodes: 1, grids: largeGridsFor},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runConfig is one invocation's settings.
type runConfig struct {
	out          string        // working directory for stores and traces
	seed         uint64        // input seed
	seconds      float64       // timed window; 0 = correctness only
	trace        bool          // traced run: per-layer numbers, not end-to-end ones
	bootSamples  int           // extra boot/teardown cycles timed during set-up
	requestLimit time.Duration // a request not finished by then counts as failed
}

// outcome is what one run of one workload measured and checked.
type outcome struct {
	latencies         []float64         // timed requests, POST → job-terminal event, s
	cpuPerCell        []float64         // process CPU time per cell, ms: one per timed sweep, or per second of warm-hits
	cells             int               // terminal cells of timed requests
	attempted, failed int               // cells; a refused or broken request fails all its cells
	wall              float64           // timed wall time, s: the cells_per_s denominator
	boots, bootCPU    []float64         // boot + store-open samples, wall and CPU, s
	fill, warmup      float64           // CPU time of the set-up beyond booting, s: the warm-hits fill; the warm-up sweep or requests
	heap              Summary           // live Go heap peaks, bytes: one per timed sweep, or per second of warm-hits
	storeHits         [2]uint64         // warm-hits timed window: store hits, of which from memory
	workers           int               // service workers per node
	digests           []string          // model digests of the grids served, deduplicated
	refs              map[int]counts    // per grid: engine counts every sweep of it must repeat
	samples           [][]byte          // result bytes served, replayed by the store probe
	verified          int               // cells whose bytes were checked
	known             map[string][2]int // unstable experiment → cells off their pin, cells served
	problems          []string          // correctness failures; any one fails the run
	layers            *layers           // traced runs only
}

func (o *outcome) problem(format string, args ...any) {
	const maxProblems = 20
	if len(o.problems) < maxProblems {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// addGrid records a grid verdict: its digest, deduplicated, its known
// defects, and one problem per offending cell.
func (o *outcome) addGrid(name string, g gridCheck) {
	if !slices.Contains(o.digests, g.Digest) {
		o.digests = append(o.digests, g.Digest)
	}
	if o.known == nil {
		o.known = map[string][2]int{}
	}
	for exp, k := range g.Known {
		acc := o.known[exp]
		o.known[exp] = [2]int{acc[0] + k[0], acc[1] + k[1]}
	}
	for _, e := range g.Errors {
		o.problem("%s: %s", name, e)
	}
	if g.Digest != g.Pinned {
		o.problem("%s: model digest %s, pinned %s", name, g.Digest, g.Pinned)
	}
}

// reportKnown prints the known defects the run's grids showed.
func (o *outcome) reportKnown() {
	for _, exp := range sortedKeys(o.known) {
		k := o.known[exp]
		fmt.Printf("KNOWN DEFECT %s: %d of %d cells served bytes that differ from the pinned reference; %s\n", exp, k[0], k[1], unstable[exp])
	}
}

// setupSeconds is the benchmark's set-up time, in process CPU seconds: the
// median boot (servers up, stores open) plus the warm-up sweep, or for
// warm-hits the fill and the warm-up requests. Booting is repeated and its
// median taken; the fill and warm-up run once.
func (o *outcome) setupSeconds() float64 {
	return Summarize(o.bootCPU).Median() + o.fill + o.warmup
}

// timeBoot boots a deployment and records the boot's wall and CPU time.
func (o *outcome) timeBoot(out string, nodes int, wrap func(string, service.Runner) service.Runner) (*deployment, error) {
	start, cpu0 := time.Now(), cpuSeconds()
	d, err := boot(out, nodes, wrap)
	if err != nil {
		return nil, err
	}
	o.bootCPU = append(o.bootCPU, cpuSeconds()-cpu0)
	o.boots = append(o.boots, time.Since(start).Seconds())
	return d, nil
}

// window samples a timed window from a goroutine of its own: every 2 ms
// the live Go heap (/gc/heap/live:bytes, what the latest GC marked live)
// through runtime/metrics, and once a second the process CPU time and the
// cells finished, which the clients add to cells. It keeps the live-heap
// peak of every second, and the peak since the last takePeak, so that a
// sweep workload can take one peak per sweep. The median of the peaks is
// the reported peak, steadier than the single highest sample. The live
// heap leaves out garbage not yet collected, whose amount depends on how
// fast the concurrent GC keeps up on a busy host.
type window struct {
	cells      atomic.Int64
	peak       atomic.Uint64 // bytes, since the last takePeak
	stop, done chan struct{}
	heapPeaks  []float64 // bytes, one per second
	cpuPerCell []float64 // ms of CPU per cell, one per second that finished cells
}

// takePeak returns the live-heap peak since the previous call and starts
// a new one.
func (w *window) takePeak() float64 { return float64(w.peak.Swap(0)) }

func startWindow() *window {
	w := &window{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		sliceStart, cpu0, cells0, peak := time.Now(), cpuSeconds(), w.cells.Load(), uint64(0)
		for {
			metrics.Read(sample)
			live := sample[0].Value.Uint64()
			peak = max(peak, live)
			for old := w.peak.Load(); live > old && !w.peak.CompareAndSwap(old, live); old = w.peak.Load() {
			}
			var now time.Time
			stopped := false
			select {
			case <-w.stop:
				now, stopped = time.Now(), true
			case now = <-tick.C:
			}
			// The last, partial second counts only if it is long enough
			// to be typical, or if it is the whole window.
			if d := now.Sub(sliceStart); d >= time.Second || stopped && (d >= time.Second/2 || len(w.heapPeaks) == 0) {
				cpu, cells := cpuSeconds(), w.cells.Load()
				if cells > cells0 {
					w.cpuPerCell = append(w.cpuPerCell, (cpu-cpu0)*1000/float64(cells-cells0))
				}
				w.heapPeaks = append(w.heapPeaks, float64(peak))
				sliceStart, cpu0, cells0, peak = now, cpu, cells, 0
			}
			if stopped {
				return
			}
		}
	}()
	return w
}

// Stop ends sampling.
func (w *window) Stop() {
	close(w.stop)
	<-w.done
}

// timeBoots boots and tears down a deployment n times, recording each boot.
func timeBoots(cfg runConfig, w workload, o *outcome) error {
	for i := 0; i < cfg.bootSamples; i++ {
		d, err := o.timeBoot(cfg.out, w.nodes, nil)
		if err != nil {
			return err
		}
		d.close()
	}
	return nil
}

// sweeper runs one sweep workload.
type sweeper struct {
	cfg   runConfig
	w     workload
	grids []service.RunRequest
	pins  map[string]string
	cl    *client
	rec   *runRecorder
	o     *outcome
}

// sweepRun is one finished sweep of grids[grid]; its deployment is still up.
type sweepRun struct {
	grid   int
	req    *request
	counts counts
	cpu    float64 // process CPU time used by the sweep, s
	runs   []runSpan
	d      *deployment
}

// sweep boots fresh nodes and sends grid k once, following its stream to
// the end. On success the caller owns the deployment; on error it is
// already closed.
func (s *sweeper) sweep(k int, traced bool) (*sweepRun, error) {
	var wrap func(string, service.Runner) service.Runner
	if s.rec != nil {
		wrap = s.rec.wrap
	}
	d, err := s.o.timeBoot(s.cfg.out, s.w.nodes, wrap)
	if err != nil {
		return nil, err
	}
	s.o.workers = d.nodes[0].srv.Stats().Workers
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.requestLimit)
	defer cancel()
	if s.rec != nil {
		s.rec.on.Store(traced)
	}
	before, cpu0 := engine.GlobalCounters(), cpuSeconds()
	r, err := s.cl.sweep(ctx, d.base(), s.grids[k], traced)
	run := &sweepRun{grid: k, req: r, counts: countsSince(before), cpu: cpuSeconds() - cpu0, d: d}
	if s.rec != nil {
		s.rec.on.Store(false)
		run.runs = s.rec.take()
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return run, nil
}

// check verifies a finished sweep: every cell done with its pinned bytes,
// and the engine counts of the grid's first sweep repeated exactly.
func (s *sweeper) check(run *sweepRun) {
	r := run.req
	if r.State != service.StatusDone || r.Good != r.Cells || r.Terminal != r.Cells {
		s.o.problem("%s: job %s ended %s with %d of %d cells done (%d terminal events)", s.w.name, r.Job, r.State, r.Good, r.Cells, r.Terminal)
	}
	job, ok := run.d.nodes[0].srv.Job(r.Job)
	if !ok {
		s.o.problem("%s: job %s is gone from its server", s.w.name, r.Job)
		return
	}
	view := job.View()
	s.o.verified += len(view.Tasks)
	s.o.addGrid(s.w.name, checkJob(view, s.pins))
	ref, seen := s.o.refs[run.grid]
	switch {
	case !seen:
		s.o.refs[run.grid] = run.counts
		for _, t := range view.Tasks {
			s.o.samples = append(s.o.samples, t.Result)
		}
	case run.counts != ref:
		s.o.problem("%s: engine counts of grid %d drifted: %s, first sweep %s", s.w.name, run.grid, run.counts, ref)
	}
}

// runSweeps runs a sweep workload: timed boots, one verified warm-up sweep,
// then closed-loop sweeps for cfg.seconds. A traced run alternates traced
// and untraced sweeps, re-sends the last traced grid to its still-warm
// nodes to time the hit path, and runs the layer probes.
func runSweeps(cfg runConfig, w workload, pins map[string]string) *outcome {
	o := &outcome{refs: map[int]counts{}}
	s := &sweeper{cfg: cfg, w: w, grids: w.grids(cfg.seed), pins: pins, cl: newClient(4), o: o}
	defer s.cl.close()
	if cfg.trace {
		s.rec = &runRecorder{}
		o.layers = newLayers()
	}
	if err := timeBoots(cfg, w, o); err != nil {
		o.problem("%s: boot: %v", w.name, err)
		return o
	}
	warm, err := s.sweep(0, false)
	if err != nil {
		o.problem("%s: warm-up sweep: %v", w.name, err)
		return o
	}
	o.warmup = warm.cpu
	s.check(warm)
	warm.d.close()
	cellsPerSweep := warm.req.Cells
	if cfg.seconds <= 0 { // correctness only: a second sweep proves the counts repeat
		again, err := s.sweep(0, false)
		if err != nil {
			o.problem("%s: second sweep: %v", w.name, err)
			return o
		}
		s.check(again)
		again.d.close()
		return o
	}

	var kept *sweepRun // traced runs keep the last traced deployment up for the hit re-sweep
	defer func() {
		if kept != nil {
			kept.d.close()
		}
	}()
	win := startWindow()
	var heapPeaks []float64
	start := time.Now()
	nTraced, nPlain := 0, 0
	for i := 0; ; i++ {
		done := time.Since(start).Seconds() >= cfg.seconds
		if done && (!cfg.trace || (nTraced > 0 && nPlain > 0)) {
			break
		}
		traced := cfg.trace && i%2 == 0
		win.takePeak()
		run, err := s.sweep(i%len(s.grids), traced)
		heapPeak := win.takePeak()
		o.attempted += cellsPerSweep
		if err != nil {
			o.failed += cellsPerSweep
			o.problem("%s: sweep %d: %v", w.name, i, err)
			continue
		}
		lat := run.req.Latency().Seconds()
		o.latencies = append(o.latencies, lat)
		if run.req.Terminal > 0 {
			o.cpuPerCell = append(o.cpuPerCell, run.cpu*1000/float64(run.req.Terminal))
		}
		heapPeaks = append(heapPeaks, heapPeak)
		o.wall += lat
		o.cells += run.req.Terminal
		o.failed += run.req.Cells - run.req.Good
		s.check(run)
		if cfg.trace {
			l := o.layers
			l.latency(traced, lat)
			if traced {
				l.workers = o.workers * w.nodes
				l.addRequest(run.req, run.runs, run.d.nodes[0].name)
				l.counts = append(l.counts, run.counts)
				if kept != nil {
					l.addNodes(kept.d)
					kept.d.close()
				}
				kept, nTraced = run, nTraced+1
				continue
			}
			nPlain++
		}
		run.d.close()
	}
	win.Stop()
	o.heap = Summarize(heapPeaks)
	if cfg.trace && kept != nil {
		s.resweep(kept)
		o.layers.addNodes(kept.d)
		runProbes(o.layers, cfg.out, cfg.seed, o.samples)
	}
	return o
}

// resweep re-sends the grid to a deployment that already holds it: every
// cell is a store hit (cluster: a remote hit for forwarded cells, since the
// origin does not cache forwarded results).
func (s *sweeper) resweep(run *sweepRun) {
	l := s.o.layers
	st0 := run.d.nodes[0].store.Stats()
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.requestLimit)
	defer cancel()
	s.rec.on.Store(true)
	r, err := s.cl.sweep(ctx, run.d.base(), s.grids[run.grid], true)
	s.rec.on.Store(false)
	runs := s.rec.take()
	if err != nil {
		s.o.problem("%s: hit re-sweep: %v", s.w.name, err)
		return
	}
	st1 := run.d.nodes[0].store.Stats()
	l.hits = [2]uint64{st1.Hits - st0.Hits, st1.MemHits - st0.MemHits}
	l.addRequest(r, runs, run.d.nodes[0].name)
}

// runWarm runs warm-hits: one node whose store is filled during set-up
// with more distinct cells than its memory layer holds, then nproc
// closed-loop clients sending Zipf-drawn one-experiment requests, every
// one of which must be served from the store with the filled bytes.
func runWarm(cfg runConfig, w workload, pins map[string]string) *outcome {
	o := &outcome{}
	var rec *runRecorder
	var wrap func(string, service.Runner) service.Runner
	if cfg.trace {
		rec, o.layers = &runRecorder{}, newLayers()
		wrap = rec.wrap
	}
	if err := timeBoots(cfg, w, o); err != nil {
		o.problem("%s: boot: %v", w.name, err)
		return o
	}
	d, err := o.timeBoot(cfg.out, 1, wrap)
	if err != nil {
		o.problem("%s: boot: %v", w.name, err)
		return o
	}
	defer d.close()
	srv := d.nodes[0].srv
	o.workers = srv.Stats().Workers
	clients := runtime.GOMAXPROCS(0)
	cl := newClient(clients)
	defer cl.close()

	// Fill, checked against the pins.
	fillCPU := cpuSeconds()
	fillReq := w.fill(cfg.seed)
	ctx, cancel := context.WithTimeout(context.Background(), cfg.requestLimit)
	defer cancel()
	if rec != nil {
		rec.on.Store(true)
	}
	before := engine.GlobalCounters()
	r, err := cl.sweep(ctx, d.base(), fillReq, cfg.trace)
	fillCounts := countsSince(before)
	if err != nil {
		o.problem("%s: fill: %v", w.name, err)
		return o
	}
	job, ok := srv.Job(r.Job)
	if !ok {
		o.problem("%s: fill job %s is gone", w.name, r.Job)
		return o
	}
	view := job.View()
	g := checkJob(view, pins)
	o.verified += len(view.Tasks)
	o.addGrid(w.name+": fill", g)
	if !g.OK() {
		return o
	}
	stored := served(view)
	for _, t := range view.Tasks {
		o.samples = append(o.samples, t.Result)
	}
	o.fill = cpuSeconds() - fillCPU
	if rec != nil {
		rec.on.Store(false)
		l := o.layers
		l.workers = o.workers
		l.addRequest(r, rec.take(), d.nodes[0].name)
		l.counts = append(l.counts, fillCounts)
	}

	wc := &warmClients{cfg: cfg, d: d, cl: cl, stored: stored, fill: fillReq, o: o}
	if cfg.seconds <= 0 { // correctness only: one pass of the traffic, checked
		t := wc.run(clients, "check", func(i int, _ time.Time) bool { return i < warmCheckRequests }, false)
		o.verified += t.verified
		return o
	}

	// Warm-up: the same traffic, untimed, so that the memory layer and the
	// retained-job window reach their steady state before the window opens.
	warmCPU := cpuSeconds()
	warm := wc.run(clients, "warmup", func(i int, _ time.Time) bool { return i < warmSettleRequests }, false)
	o.warmup = cpuSeconds() - warmCPU
	o.attempted, o.failed = warm.failed, warm.failed // a failed warm-up request fails the run

	st0 := d.nodes[0].store.Stats()
	before = engine.GlobalCounters()
	wc.win = startWindow()
	window := time.Duration(cfg.seconds * float64(time.Second))
	timedStart := time.Now()
	t := wc.run(clients, "timed", func(_ int, now time.Time) bool { return now.Sub(timedStart) < window }, cfg.trace)
	o.wall = time.Since(timedStart).Seconds()
	wc.win.Stop()
	o.heap, o.cpuPerCell = Summarize(wc.win.heapPeaks), wc.win.cpuPerCell
	o.latencies, o.cells = t.lats, t.cells
	o.attempted += t.attempted
	o.failed += t.failed
	if c := countsSince(before); c.Supersteps != 0 {
		o.problem("%s: the timed window computed (%s): a cell missed the store", w.name, c)
	}
	st1 := d.nodes[0].store.Stats()
	o.storeHits = [2]uint64{st1.Hits - st0.Hits, st1.MemHits - st0.MemHits}
	if cfg.trace {
		o.layers.hits = o.storeHits
		o.layers.addNodes(d)
		runProbes(o.layers, cfg.out, cfg.seed, o.samples)
	}
	return o
}

// warmClients drives warm-hits traffic from several closed-loop clients.
type warmClients struct {
	cfg    runConfig
	d      *deployment
	cl     *client
	stored map[string][]byte
	fill   service.RunRequest
	o      *outcome
	win    *window // the timed window, counting finished cells; nil outside it

	mu sync.Mutex // guards o.problems
}

// phase is the length of the alternating traced and untraced phases of a
// traced warm-hits run.
const phase = 250 * time.Millisecond

// tally is what a batch of warm-hits requests did.
type tally struct {
	lats                               []float64 // s, successful requests
	attempted, failed, cells, verified int
}

func (t *tally) add(u tally) {
	t.lats = append(t.lats, u.lats...)
	t.attempted += u.attempted
	t.failed += u.failed
	t.cells += u.cells
	t.verified += u.verified
}

// run starts n clients, each sending requests while more(i, now) holds for
// its i-th request, waits for them and returns their tally. With trace
// set, requests in even phases since the start are traced, and every
// request's latency feeds the traced-vs-untraced comparison.
func (wc *warmClients) run(n int, stream string, more func(i int, now time.Time) bool, trace bool) tally {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var total tally
	start := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen := newWarmGen(wc.cfg.seed, fmt.Sprintf("%s/%d", stream, c), wc.fill)
			var t tally
			for i := 0; more(i, time.Now()); i++ {
				req := gen.next()
				traced := trace && (time.Since(start)/phase)%2 == 0
				ctx, cancel := context.WithTimeout(context.Background(), wc.cfg.requestLimit)
				r, err := wc.cl.sweep(ctx, wc.d.base(), req, traced)
				cancel()
				t.attempted += warmReqSeeds
				if err == nil {
					err = wc.check(r)
				}
				if err != nil {
					t.failed += warmReqSeeds
					wc.problem(err)
					continue
				}
				lat := r.Latency().Seconds()
				t.lats = append(t.lats, lat)
				t.cells += r.Terminal
				if wc.win != nil {
					wc.win.cells.Add(int64(r.Terminal))
				}
				t.verified += r.Cells
				if trace {
					wc.o.layers.latency(traced, lat)
					if traced {
						wc.o.layers.addRequest(r, nil, wc.d.nodes[0].name)
					}
				}
			}
			mu.Lock()
			total.add(t)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return total
}

// check verifies one warm-hits request: done, every cell a store hit, and
// the bytes served exactly the bytes stored during set-up.
func (wc *warmClients) check(r *request) error {
	if r.State != service.StatusDone || r.Good != r.Cells || r.Terminal != r.Cells {
		return fmt.Errorf("job %s ended %s with %d of %d cells done", r.Job, r.State, r.Good, r.Cells)
	}
	job, ok := wc.d.nodes[0].srv.Job(r.Job)
	if !ok {
		return fmt.Errorf("job %s is gone from its server", r.Job)
	}
	view := job.View()
	for _, t := range view.Tasks {
		if !t.Cached {
			return fmt.Errorf("%s seed %d was computed, not served from the store", t.Experiment, t.Seed)
		}
	}
	return sameBytes(view, wc.stored)
}

func (wc *warmClients) problem(err error) {
	wc.mu.Lock()
	wc.o.problem("%s: %v", wlWarm, err)
	wc.mu.Unlock()
}
