// Command sweepbench is parbw's served-sweep benchmark. It boots the real
// service.Server handler in-process behind loopback HTTP listeners (a
// 3-node cluster for cluster-sweep), drives it the way `bandsim watch`
// users do — POST /v1/runs, then the job's SSE stream to its last terminal
// event — times every workload end to end, and checks every result byte
// against pinned digests. A traced run (--trace 1) reports per-layer
// numbers instead. See README.md for the workloads and the metric map.
//
//	go run . --workload cold-sweep --seed 1 --seconds 10 --trace 0
//	go run . --check          # correctness only, every workload
//	go run . --pin            # regenerate pins.json
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"parbw/internal/harness"
	"parbw/internal/runstore"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit; the lists below are exactly the
// end_to_end and per_layer lists of BENCHMARK.json.
type metricDef struct{ Name, Unit string }

var endToEnd = []metricDef{
	{"cpu_ms_per_cell", "ms"},
	{"peak_heap_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"service.admit_ms_p50", "ms"},
	{"service.admit_ms_p99", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.hit_ms", "ms"},
	{"service.deliver_ms", "ms"},
	{"service.events_per_cell", "events/cell"},
	{"service.events_dropped", "count"},
	{"service.events_coalesced", "count"},
	{"service.retries", "count"},
	{"service.panics", "count"},
	{"harness.busy_s", "s"},
	{"harness.busy_frac", "ratio"},
	{"harness.cell_ms_p50", "ms"},
	{"harness.cell_ms_max", "ms"},
	{"engine.supersteps", "count"},
	{"engine.messages", "count"},
	{"engine.overloads", "count"},
	{"engine.busy_us_per_step", "us"},
	{"engine.step_us", "us"},
	{"engine.msg_ns", "ns"},
	{"workpool.fanout_ns", "ns"},
	{"workpool.fanout_ns_1w", "ns"},
	{"sched.plan_ms", "ms"},
	{"sched.send_ms", "ms"},
	{"runstore.put_us", "us"},
	{"runstore.get_mem_us", "us"},
	{"runstore.get_disk_us", "us"},
	{"runstore.mem_hit_ratio", "ratio"},
	{"cluster.forwards", "count"},
	{"cluster.remote_hits", "count"},
	{"cluster.forward_failures", "count"},
	{"cluster.degraded_ratio", "ratio"},
	{"cluster.events_posted", "count"},
	{"cluster.events_dropped", "count"},
	{"cluster.forward_probe_ms", "ms"},
	{"trace.sweep_s_traced", "s"},
	{"trace.sweep_s_untraced", "s"},
	{"trace.overhead_ratio", "ratio"},
	{"span.client.post.self_ms", "ms"},
	{"span.client.stream.self_ms", "ms"},
	{"span.service.queue.self_ms", "ms"},
	{"span.service.hit.self_ms", "ms"},
	{"span.harness.run.self_ms", "ms"},
	{"span.service.deliver.self_ms", "ms"},
}

// maxProcs caps GOMAXPROCS, and with it the service's workers, the engine's
// fan-out and the warm-hits clients. Two is the smallest multi-worker
// setting; a fixed cap makes figures from hosts with more cores comparable
// and leaves such hosts spare cores for their neighbours' load.
const maxProcs = 2

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("sweepbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "input seed: picks the grids' experiment seeds and the request mix")
	seconds := fs.Float64("seconds", 10, "timed window per run")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics, spans written under --out")
	check := fs.Bool("check", false, "correctness only: every workload's digest and count checks, no timing")
	pin := fs.Bool("pin", false, "recompute every pinnable cell through the harness and write --pins")
	pinsPath := fs.String("pins", "sweepbench/pins.json", "where --pin writes")
	out := fs.String("out", ".bench_build", "working directory for builds, stores and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))
	if *pin {
		if err := pinAll(*pinsPath); err != nil {
			fmt.Fprintln(os.Stderr, "sweepbench:", err)
			return 1
		}
		return 0
	}
	pins, err := loadPins(pinsJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepbench:", err)
		return 1
	}
	cfg := runConfig{
		out: filepath.Join(*out, "work"), seed: *seed, seconds: *seconds, trace: *trace == 1,
		bootSamples: 9, requestLimit: 90 * time.Second,
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "sweepbench:", err)
		return 1
	}
	if *check {
		return checkAll(cfg, *name, pins)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "sweepbench: unknown --workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "sweepbench: --seconds must be positive (use --check for a correctness-only pass)")
		return 2
	}
	o := runWorkload(cfg, w, pins)
	printHost(w.name, cfg, o)
	var metrics map[string]metric
	if cfg.trace {
		metrics = layerMetrics(w, o)
		path := filepath.Join(*out, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
		if err := writeTrace(path, hostFacts(w.name, cfg, o), o.layers.spans); err != nil {
			o.problem("trace file: %v", err)
		} else {
			fmt.Printf("# spans: %d written to %s\n", len(o.layers.spans), path)
		}
	} else {
		metrics = endToEndMetrics(w, o)
	}
	if bad := nonFinite(metrics); bad != "" {
		o.problem("metric %s was not measured", bad)
	}
	o.reportKnown()
	for _, p := range o.problems {
		fmt.Printf("FAIL %s\n", p)
	}
	rep := report{Correct: len(o.problems) == 0 && o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics}
	if rep.Attempted == 0 { // nothing ran: the contract wants attempted ≥ 1
		rep.Attempted, rep.Failed, rep.Correct = 1, 1, false
	}
	data, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepbench:", err)
		return 1
	}
	fmt.Println(string(data))
	if !rep.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func runWorkload(cfg runConfig, w workload, pins map[string]string) *outcome {
	if w.fill != nil {
		return runWarm(cfg, w, pins)
	}
	return runSweeps(cfg, w, pins)
}

// hostFacts are the facts a number depends on. Every report carries them,
// so a figure from one host is never read as one from another.
func hostFacts(name string, cfg runConfig, o *outcome) map[string]any {
	return map[string]any{
		"workload":        name,
		"seed":            cfg.seed,
		"seconds":         cfg.seconds,
		"trace":           cfg.trace,
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go":              runtime.Version(),
		"goos_goarch":     runtime.GOOS + "/" + runtime.GOARCH,
		"service_workers": o.workers,
		"store_mem":       runstore.DefaultMaxMem,
		"code_version":    harness.CodeVersion,
		"model_digests":   o.digests,
	}
}

func printHost(name string, cfg runConfig, o *outcome) {
	data, _ := json.Marshal(hostFacts(name, cfg, o))
	fmt.Printf("# host %s\n", data)
}

// line prints one human-readable report line.
func line(w, name, value string) {
	fmt.Printf("%-14s %-28s %s\n", w, name, value)
}

// endToEndMetrics prints every end-to-end figure and returns the gated
// ones. Wall-clock figures (sweep_s, cells_per_s, req_p50_ms, req_p99_ms)
// are printed but not gated: on a shared host they move with the
// neighbours' load, which stalls the program's threads without using its
// CPU time.
func endToEndMetrics(w workload, o *outcome) map[string]metric {
	lat := Summarize(o.latencies)
	ms := make([]float64, len(o.latencies))
	for i, v := range o.latencies {
		ms[i] = v * 1000
	}
	latMS := Summarize(ms)
	p99, n := latMS.Percentile(99)
	cps := float64(o.cells) / o.wall
	failRatio := 0.0
	if o.attempted > 0 {
		failRatio = float64(o.failed) / float64(o.attempted)
	}
	cpu := Summarize(o.cpuPerCell)
	per := "sweep"
	if w.fill != nil {
		per = "second"
	}
	line(w.name, "cpu_ms_per_cell", fmt.Sprintf("%s (one sample per %s)", cpu.Describe("%.4f"), per))
	line(w.name, "sweep_s", lat.Describe("%.4f"))
	line(w.name, "req_p50_ms", latMS.Describe("%.3f"))
	line(w.name, "req_p99_ms", fmt.Sprintf("%.3f (n=%d)", p99, n))
	line(w.name, "cells_per_s", fmt.Sprintf("%.1f (%d cells / %.2f s)", cps, o.cells, o.wall))
	line(w.name, "fail_ratio", fmt.Sprintf("%g (%d of %d cells)", failRatio, o.failed, o.attempted))
	heapMB := o.heap.Median() / (1 << 20)
	line(w.name, "peak_heap_mb", fmt.Sprintf("%.1f (median of %d live-heap peaks, one per %s; highest %.1f)", heapMB, o.heap.N(), per, o.heap.Max()/(1<<20)))
	line(w.name, "setup_s", fmt.Sprintf("%.4f CPU (median boot %.4f CPU, %.4f wall, n=%d; fill %.3f, warm-up %.3f CPU)",
		o.setupSeconds(), Summarize(o.bootCPU).Median(), Summarize(o.boots).Median(), len(o.boots), o.fill, o.warmup))
	if w.fill != nil {
		line(w.name, "store mem hits", fmt.Sprintf("%.3f of %d hits", share(o.storeHits[1], o.storeHits[0]), o.storeHits[0]))
	}
	return map[string]metric{
		"cpu_ms_per_cell": {cpu.Median(), "ms"},
		"peak_heap_mb":    {heapMB, "MB"},
		"setup_s":         {o.setupSeconds(), "s"},
	}
}

// layerMetrics derives the per-layer figures of a traced run.
func layerMetrics(w workload, o *outcome) map[string]metric {
	l := o.layers
	v := map[string]float64{}
	med := func(xs []float64) float64 { return Summarize(xs).Median() }
	admit := Summarize(l.admit)
	v["service.admit_ms_p50"] = admit.Median()
	v["service.admit_ms_p99"], _ = admit.Percentile(99)
	v["service.queue_wait_ms"] = med(l.queue)
	v["service.hit_ms"] = med(l.hit)
	v["service.deliver_ms"] = med(l.deliver)
	v["service.events_per_cell"] = float64(l.frames) / float64(max(l.cells, 1))
	v["service.events_dropped"] = float64(l.svc.StreamEventsDropped)
	v["service.events_coalesced"] = float64(l.svc.StreamEventsCoalesced)
	v["service.retries"] = float64(l.svc.TaskRetries)
	v["service.panics"] = float64(l.svc.TaskPanics)
	v["harness.busy_s"] = med(l.busy)
	v["harness.busy_frac"] = med(l.busyFrac)
	cell := Summarize(l.cellRun)
	v["harness.cell_ms_p50"], v["harness.cell_ms_max"] = cell.Median(), cell.Max()
	var c counts
	if len(l.counts) > 0 {
		c = l.counts[0]
	}
	v["engine.supersteps"], v["engine.messages"], v["engine.overloads"] = float64(c.Supersteps), float64(c.Messages), float64(c.Overloads)
	steps := uint64(0)
	for _, n := range l.counts {
		steps += n.Supersteps
	}
	v["engine.busy_us_per_step"] = Summarize(l.busy).Sum() * 1e6 / float64(max(steps, 1))
	for k, x := range l.probes {
		v[k] = x
	}
	v["runstore.mem_hit_ratio"] = share(l.hits[1], l.hits[0])
	p := l.peers
	v["cluster.forwards"], v["cluster.remote_hits"], v["cluster.forward_failures"] = float64(p.Forwards), float64(p.RemoteHits), float64(p.Failures)
	v["cluster.degraded_ratio"] = share(p.Degraded, p.Forwards+p.Degraded)
	v["cluster.events_posted"], v["cluster.events_dropped"] = float64(p.EventsPosted), float64(p.EventsDropped)
	traced, plain := med(l.traced), med(l.untraced)
	v["trace.sweep_s_traced"], v["trace.sweep_s_untraced"] = traced, plain
	v["trace.overhead_ratio"] = traced/plain - 1
	for _, n := range []string{"client.post", "client.stream", "service.queue", "service.hit", "harness.run", "service.deliver"} {
		if st := l.self[n]; st != nil && st.n > 0 {
			v["span."+n+".self_ms"] = st.totalMS / float64(st.n)
		}
	}

	out := map[string]metric{}
	for _, d := range perLayer {
		x, ok := v[d.Name]
		if !ok {
			x = math.NaN()
		}
		out[d.Name] = metric{x, d.Unit}
		line(w.name, d.Name, fmt.Sprintf("%.6g %s", x, d.Unit))
	}
	// Figures that exist only on some workloads: printed, not in the JSON.
	line(w.name, "runstore.mem_hit_ratio base", fmt.Sprintf("%d hits", l.hits[0]))
	line(w.name, "cluster.degraded_ratio base", fmt.Sprintf("%d forwarded cells", p.Forwards+p.Degraded))
	line(w.name, "trace.sweep_s samples", fmt.Sprintf("traced n=%d, untraced n=%d", len(l.traced), len(l.untraced)))
	if len(l.forward) > 0 {
		line(w.name, "cluster.forward_ms", Summarize(l.forward).Describe("%.3f"))
	}
	if st := l.self["cluster.forward"]; st != nil {
		line(w.name, "span.cluster.forward.self_ms", fmt.Sprintf("%.6g ms (n=%d)", st.totalMS/float64(st.n), st.n))
	}
	for _, fam := range sortedKeys(l.family) {
		line(w.name, "harness.busy_s."+fam, fmt.Sprintf("%.4f s per request that ran cells (n=%d)", l.family[fam]/float64(len(l.busy)), len(l.busy)))
	}
	if w.fill != nil {
		line(w.name, "note", "harness, engine and deliver figures come from the traced set-up fill; the timed window computes nothing")
	} else {
		line(w.name, "note", "service.hit figures come from re-sending the last traced grid to its warm nodes")
	}
	for _, e := range l.probeErr {
		o.problem("probe: %s", e)
	}
	return out
}

// share is a/b, or 0 when b is 0; callers print the base b beside it.
func share(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func nonFinite(ms map[string]metric) string {
	for _, k := range sortedKeys(ms) {
		if math.IsNaN(ms[k].Value) || math.IsInf(ms[k].Value, 0) {
			return k
		}
	}
	return ""
}
