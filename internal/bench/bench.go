// Package bench is the repository's benchmark-regression harness: a fixed
// suite of hot-path benchmarks (superstep merge on each model, the static
// scheduling sweep, and a few end-to-end Table 1 experiments) that runs from
// a normal binary via `bandsim bench` and emits a canonical JSON report.
//
// Every case carries a deterministic *model fingerprint* — a string derived
// only from simulated model time and traffic counts, never from wall clock.
// The fingerprints are folded into a checksum, so a report proves not just
// "how fast" but "fast at computing the same answer": an optimization that
// drifts model semantics fails the comparison even if it wins on ns/op.
//
// Comparison policy (Compare): a candidate report fails against a baseline
// if any case disappears, any model fingerprint changes, or any case's
// ns/op regresses by more than the tolerance (wall-clock fields are ignored
// entirely when either side is a -dry report).
package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"regexp"
	"runtime"
	"sync"
	"testing"

	"parbw/internal/bsp"
	"parbw/internal/harness"
	"parbw/internal/model"
	"parbw/internal/pram"
	"parbw/internal/qsm"
	"parbw/internal/sched"
	"parbw/internal/work/dagsched"
	"parbw/internal/xrand"
)

// Schema identifies the report format; bump on incompatible changes.
const Schema = "parbw-bench/1"

// Case is one benchmark in the fixed suite.
type Case struct {
	Name string
	// Bench is a standard benchmark body (warmup before ResetTimer, then a
	// b.N loop). It runs under testing.Benchmark.
	Bench func(b *testing.B)
	// Model returns the case's deterministic model fingerprint. It must
	// depend only on simulated time and traffic counts.
	Model func() string
}

// Result is the measured outcome of one case.
type Result struct {
	Name     string  `json:"name"`
	NsOp     float64 `json:"ns_op"`
	BOp      int64   `json:"b_op"`
	AllocsOp int64   `json:"allocs_op"`
	Model    string  `json:"model"`
}

// Report is the canonical output of one `bandsim bench` run.
type Report struct {
	Schema        string   `json:"schema"`
	CodeVersion   string   `json:"code_version"`
	Go            string   `json:"go"`
	GOMAXPROCS    int      `json:"gomaxprocs"`
	Timestamp     string   `json:"timestamp"` // RFC3339 UTC, or "dry"
	Results       []Result `json:"results"`
	ModelChecksum string   `json:"model_checksum"` // FNV-64a over name+model pairs
}

// Options controls a Run.
type Options struct {
	// Dry skips the timed loops: ns/op, B/op and allocs/op are zero and the
	// timestamp is the literal "dry", so two dry runs on the same build are
	// byte-identical. The model fingerprints are still computed, which makes
	// dry mode the cheap determinism check.
	Dry bool
	// BenchTime is the per-case measurement budget in testing's
	// -benchtime syntax ("1s", "200ms", "100x"). Empty keeps the default.
	BenchTime string
	// Run, if non-empty, restricts the suite to cases whose name matches
	// this regular expression (unanchored, like `go test -run`). A pattern
	// matching no case is an error. Filtered reports are for targeted runs
	// (CI smoke jobs, local iteration); compare them against an equally
	// filtered baseline (Report.Filter).
	Run string
	// Timestamp stamps the report (ignored in dry mode). Empty is allowed;
	// the caller normally passes time.Now().UTC() formatted as RFC3339.
	Timestamp string
}

const (
	benchProcs = 256 // machine size for the superstep cases
	benchScale = 16  // workload scale for the scheduling case
)

// superstepBSP mirrors internal/bsp's benchMachine: every processor charges
// 4 work and sends two single-flit messages on auto-assigned slots.
func superstepBSP() (*bsp.Machine, func() bsp.Stats) {
	p := benchProcs
	m := bsp.New(bsp.Config{P: p, Cost: model.BSPm(32, 4), Seed: 1})
	body := func(c *bsp.Ctx) {
		c.Charge(4)
		c.Send((c.ID()+1)%p, 1, int64(c.ID()))
		c.Send((c.ID()+7)%p, 2, int64(c.ID()))
	}
	return m, func() bsp.Stats { return m.Superstep(body) }
}

// superstepQSM mirrors internal/qsm's benchMachine: read the low half,
// write a private cell in the high half.
func superstepQSM() (*qsm.Machine, func() qsm.Stats) {
	p := benchProcs
	m := qsm.New(qsm.Config{P: p, Mem: 2 * p, Cost: model.QSMm(32), Seed: 1})
	body := func(c *qsm.Ctx) {
		c.Charge(4)
		c.Read((c.ID() + 1) % p)
		c.Write(p+c.ID(), int64(c.ID()))
	}
	return m, func() qsm.Stats { return m.Phase(body) }
}

// superstepPRAM mirrors internal/pram's benchMachine on the QRQW variant.
func superstepPRAM() (*pram.Machine, func() pram.Stats) {
	p := benchProcs
	m := pram.New(pram.Config{P: p, Mem: 2 * p, Mode: pram.QRQW, Seed: 1})
	body := func(c *pram.Ctx) {
		v := c.Read((c.ID() + 1) % p)
		c.Write(p+c.ID(), v+1)
	}
	return m, func() pram.Stats { return m.Step(body) }
}

// superstepBSPScale builds a p-processor BSP(g) machine whose program sends
// one single-flit neighbor message per processor — the p-scaling workload.
// It measures per-processor engine overhead: columnar resets, arena appends
// and counting-sort routing, with an allocation-free steady state.
func superstepBSPScale(p int) (*bsp.Machine, func() bsp.Stats) {
	m := bsp.New(bsp.Config{P: p, Cost: model.BSPg(4, 16), Seed: 1})
	body := func(c *bsp.Ctx) {
		i := c.ID()
		c.Send((i+1)%p, 1, int64(i))
	}
	return m, func() bsp.Stats { return m.Superstep(body) }
}

// scaleCase wraps the p-scaling workload at one machine size. Dividing the
// case's ns/op by p gives the per-processor superstep overhead; the curve
// over the p10k/p100k/p1m cases is what README's scaling section reports.
func scaleCase(name string, p int) Case {
	return Case{
		Name: name,
		Bench: func(b *testing.B) {
			_, step := superstepBSPScale(p)
			step() // warm both halves of the double-buffered inbox slab
			step()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		},
		Model: func() string {
			_, step := superstepBSPScale(p)
			var st bsp.Stats
			for i := 0; i < 3; i++ {
				st = step()
			}
			return fmt.Sprintf("p=%d cost=%g n=%d h=%d maxslot=%d", p, st.Cost, st.N, st.H, st.MaxSlot)
		},
	}
}

// schedPlans builds the Section 6 skew shapes at the sched/static
// experiment's scale (p=256, scale 16).
func schedPlans(rng *xrand.Source, p int) []sched.Plan {
	return []sched.Plan{
		sched.UniformPlan(rng, p, benchScale),
		sched.ZipfPlan(rng, p, p*benchScale, 1.2),
		sched.HalfHalfPlan(rng, p, 2*benchScale, benchScale/4+1),
		sched.PointPlan(p, p*benchScale/4),
	}
}

// schedStaticOnce runs Unbalanced-Send over the four skew workloads on a
// fresh BSP(m) machine each, exactly as the sched/static experiment does,
// and returns the summed simulated time and flit count.
func schedStaticOnce() (total model.Time, n int) {
	p, mm, l := benchProcs, 64, 8
	rng := xrand.New(1)
	for _, plan := range schedPlans(rng, p) {
		m := bsp.New(bsp.Config{P: p, Cost: model.BSPm(mm, l), Seed: 1})
		r := sched.UnbalancedSend(m, plan, sched.Options{Eps: 0.25})
		total += r.Time
		n += r.N
	}
	return total, n
}

// dagLowerOnce runs the DAG lowering pipeline end to end at a fixed shape
// (8 levels of 64 nodes, 2 dependencies per node on 64 processors): build
// the layered DAG, band it into levels, place greedily, lower to the work
// IR with batching, and replay the schedule on an exponential-penalty
// BSP(m). Fresh deterministic RNG per call, so the fingerprint is stable.
func dagLowerOnce() (total model.Time, sends, flits int) {
	const p, mm, l, width, depth = 64, 16, 4, 64, 8
	rng := xrand.Derive(1, "bench/dag_lower")
	d := &dagsched.DAG{Nodes: make([]dagsched.Node, width*depth)}
	for i := range d.Nodes {
		d.Nodes[i].Work = int64(1 + rng.Intn(3))
	}
	for lv := 1; lv < depth; lv++ {
		for j := 0; j < width; j++ {
			v := lv*width + j
			for e := 0; e < 1+rng.Intn(2); e++ {
				d.Edges = append(d.Edges, dagsched.Edge{
					U: (lv-1)*width + rng.Intn(width), V: v, Len: 1 + rng.Intn(4),
				})
			}
		}
	}
	levels, err := d.Levels()
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	place := dagsched.LevelSchedule(d, levels, p)
	ir, err := dagsched.Lower(d, levels, place, p, mm, l, dagsched.Options{Batch: true})
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	m := bsp.New(bsp.Config{P: p, Cost: model.BSPm(mm, l), Seed: 1})
	sched.ReplayAll(m, ir)
	return m.Time(), ir.TotalSends, ir.TotalFlits
}

// table1Case wraps one harness experiment (quick preset, seed 1) as a suite
// case; the fingerprint is the resolved canonical parameter assignment plus
// the experiment's aggregate model time, so a schema-default drift changes
// the fingerprint even when the model time happens to survive it.
func table1Case(id string) Case {
	run := func() (string, float64) {
		e, ok := harness.ByID(id)
		if !ok {
			panic(fmt.Sprintf("bench: unknown experiment %q in fixed suite", id))
		}
		raw := harness.QuickParams()
		vals, err := e.Resolve(raw)
		if err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
		return vals.Canonical(), e.Run(nil, harness.Config{Seed: 1, Params: raw}).ModelTime
	}
	return Case{
		Name: id,
		Bench: func(b *testing.B) {
			run() // warm caches and globals
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		},
		Model: func() string {
			canon, mt := run()
			return fmt.Sprintf("params{%s} model_time=%g", canon, mt)
		},
	}
}

// Suite returns the fixed benchmark suite. The set and order of cases are
// part of the report contract: Compare treats a missing case as a failure.
func Suite() []Case {
	return []Case{
		{
			Name: "superstep/bsp",
			Bench: func(b *testing.B) {
				_, step := superstepBSP()
				step() // warm the recycled buffers
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step()
				}
			},
			Model: func() string {
				_, step := superstepBSP()
				var st bsp.Stats
				for i := 0; i < 3; i++ {
					st = step()
				}
				return fmt.Sprintf("cost=%g n=%d h=%d maxslot=%d", st.Cost, st.N, st.H, st.MaxSlot)
			},
		},
		{
			Name: "superstep/qsm",
			Bench: func(b *testing.B) {
				_, step := superstepQSM()
				step()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step()
				}
			},
			Model: func() string {
				_, step := superstepQSM()
				var st qsm.Stats
				for i := 0; i < 3; i++ {
					st = step()
				}
				return fmt.Sprintf("cost=%g reads=%d writes=%d kappa=%d", st.Cost, st.Reads, st.Writes, st.Kappa)
			},
		},
		{
			Name: "superstep/pram",
			Bench: func(b *testing.B) {
				_, step := superstepPRAM()
				step()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step()
				}
			},
			Model: func() string {
				_, step := superstepPRAM()
				var st pram.Stats
				for i := 0; i < 3; i++ {
					st = step()
				}
				return fmt.Sprintf("cost=%g reads=%d writes=%d", st.Cost, st.Reads, st.Writes)
			},
		},
		{
			Name: "sched/static",
			Bench: func(b *testing.B) {
				schedStaticOnce() // warm
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					schedStaticOnce()
				}
			},
			Model: func() string {
				t, n := schedStaticOnce()
				return fmt.Sprintf("time=%g n=%d", t, n)
			},
		},
		{
			Name: "sched/dag_lower",
			Bench: func(b *testing.B) {
				dagLowerOnce() // warm
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dagLowerOnce()
				}
			},
			Model: func() string {
				t, sends, flits := dagLowerOnce()
				return fmt.Sprintf("time=%g sends=%d flits=%d", t, sends, flits)
			},
		},
		table1Case("table1/onetoall"),
		table1Case("table1/broadcast"),
		table1Case("table1/parity"),
		scaleCase("superstep/bsp/p10k", 10_000),
		scaleCase("superstep/bsp/p100k", 100_000),
		scaleCase("superstep/bsp/p1m", 1<<20),
	}
}

// benchInit makes the testing package's benchmark flags available from a
// non-test binary so BenchTime can be honored. Init registers the test.*
// flags exactly once; values are then set programmatically, never parsed
// from the command line.
var benchInit sync.Once

func setBenchTime(d string) error {
	benchInit.Do(testing.Init)
	f := flag.Lookup("test.benchtime")
	if f == nil {
		return fmt.Errorf("bench: testing flag test.benchtime not registered")
	}
	return f.Value.Set(d)
}

// Run executes the fixed suite and assembles the canonical report.
func Run(opts Options) (*Report, error) {
	if opts.BenchTime != "" && !opts.Dry {
		if err := setBenchTime(opts.BenchTime); err != nil {
			return nil, err
		}
	}
	cases := Suite()
	if opts.Run != "" {
		re, err := regexp.Compile(opts.Run)
		if err != nil {
			return nil, fmt.Errorf("bench: bad -run pattern: %w", err)
		}
		kept := cases[:0]
		for _, c := range cases {
			if re.MatchString(c.Name) {
				kept = append(kept, c)
			}
		}
		if len(kept) == 0 {
			return nil, fmt.Errorf("bench: -run %q matches no case", opts.Run)
		}
		cases = kept
	}
	rep := &Report{
		Schema:      Schema,
		CodeVersion: harness.CodeVersion,
		Go:          runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Timestamp:   opts.Timestamp,
		Results:     make([]Result, 0, len(cases)),
	}
	if opts.Dry {
		rep.Timestamp = "dry"
	}
	for _, c := range cases {
		r := Result{Name: c.Name, Model: c.Model()}
		if !opts.Dry {
			br := testing.Benchmark(c.Bench)
			if br.N > 0 {
				r.NsOp = float64(br.T.Nanoseconds()) / float64(br.N)
				r.BOp = br.AllocedBytesPerOp()
				r.AllocsOp = br.AllocsPerOp()
			}
		}
		rep.Results = append(rep.Results, r)
	}
	rep.ModelChecksum = checksum(rep.Results)
	return rep, nil
}

// checksum folds every (name, model) pair into an FNV-64a digest. It covers
// only model-derived fields, so it is stable across machines and loads.
func checksum(rs []Result) string {
	h := fnv.New64a()
	for _, r := range rs {
		fmt.Fprintf(h, "%s\x00%s\n", r.Name, r.Model)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Marshal renders the report as indented JSON with a trailing newline. The
// field order is fixed by the struct, so equal reports are byte-equal.
func (r *Report) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Filter returns a copy of the report containing only the results whose
// name matches pattern (unanchored regexp), with the checksum recomputed
// over the surviving cases. It is how a full baseline is narrowed before
// comparing against a report produced with Options.Run. A pattern matching
// no result is an error — comparing against an empty baseline would pass
// vacuously.
func (r *Report) Filter(pattern string) (*Report, error) {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, fmt.Errorf("bench: bad filter pattern: %w", err)
	}
	out := *r
	out.Results = nil
	for _, res := range r.Results {
		if re.MatchString(res.Name) {
			out.Results = append(out.Results, res)
		}
	}
	if len(out.Results) == 0 {
		return nil, fmt.Errorf("bench: filter %q matches no case in report", pattern)
	}
	out.ModelChecksum = checksum(out.Results)
	return &out, nil
}

// Unmarshal parses a report and checks the schema tag.
func Unmarshal(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: bad report: %w", err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("bench: report schema %q, want %q", r.Schema, Schema)
	}
	return &r, nil
}

// Compare checks a candidate report against a baseline. tol is the allowed
// fractional ns/op regression (0.20 = 20%); model fingerprints must match
// exactly and every baseline case must still exist. It returns one message
// per violation, empty when the candidate passes.
func Compare(baseline, candidate *Report, tol float64) []string {
	var fails []string
	byName := make(map[string]Result, len(candidate.Results))
	for _, r := range candidate.Results {
		byName[r.Name] = r
	}
	for _, b := range baseline.Results {
		c, ok := byName[b.Name]
		if !ok {
			fails = append(fails, fmt.Sprintf("%s: case missing from candidate report", b.Name))
			continue
		}
		if b.Model != c.Model {
			fails = append(fails, fmt.Sprintf("%s: model fingerprint drifted: baseline %q, candidate %q", b.Name, b.Model, c.Model))
		}
		if b.NsOp > 0 && c.NsOp > 0 { // dry reports carry no timings
			if c.NsOp > b.NsOp*(1+tol) {
				fails = append(fails, fmt.Sprintf("%s: ns/op regressed %.1f%% (baseline %.0f, candidate %.0f, tolerance %.0f%%)",
					b.Name, 100*(c.NsOp/b.NsOp-1), b.NsOp, c.NsOp, 100*tol))
			}
		}
	}
	return fails
}
