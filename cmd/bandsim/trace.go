package main

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"parbw/internal/bsp"
	"parbw/internal/collective"
	"parbw/internal/engine"
	"parbw/internal/harness"
	"parbw/internal/model"
	"parbw/internal/problems"
	"parbw/internal/sched"
	"parbw/internal/tablefmt"
	"parbw/internal/xrand"
)

// traceTargets maps the classic `bandsim trace <name>` algorithm targets to
// drivers executed on a BSP(m) machine (p=256, m=32, L=4, exponential
// penalty). Any registered experiment id is also a valid trace target: it is
// run with a recording harness.Config.Observer, which every machine the
// experiment constructs reports its supersteps to.
var traceTargets = map[string]func(m *bsp.Machine, seed uint64){
	"broadcast": func(m *bsp.Machine, seed uint64) {
		collective.BroadcastBSP(m, 0, 1)
	},
	"prefix": func(m *bsp.Machine, seed uint64) {
		vals := make([]int64, m.P())
		for i := range vals {
			vals[i] = int64(i)
		}
		collective.PrefixSumBSP(m, vals, collective.Sum, 0)
	},
	"unbalanced": func(m *bsp.Machine, seed uint64) {
		plan := sched.ZipfPlan(xrand.New(seed), m.P(), 8*m.P(), 1.1)
		sched.UnbalancedSend(m, plan, sched.Options{Eps: 0.25})
	},
	"listrank": func(m *bsp.Machine, seed uint64) {
		problems.ListRankContractBSP(m, problems.RandomList(xrand.New(seed), m.P()))
	},
	"sort": func(m *bsp.Machine, seed uint64) {
		keys := make([]int64, m.P())
		rng := xrand.New(seed)
		for i := range keys {
			keys[i] = int64(rng.Uint64() % 9973)
		}
		problems.ColumnsortBSP(m, keys, 8)
	},
}

// traceTargetNames returns the algorithm target names, sorted.
func traceTargetNames() []string {
	names := make([]string, 0, len(traceTargets))
	for n := range traceTargets {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// unknownTraceTargetError formats the failure for a mistyped trace target
// with closest-match suggestions drawn from both the algorithm names and the
// experiment registry, mirroring `bandsim run`'s behavior.
func unknownTraceTargetError(name string) error {
	msg := fmt.Sprintf("unknown trace target %q", name)
	if sug := append(harness.SuggestFrom(name, traceTargetNames()), harness.Suggest(name)...); len(sug) > 0 {
		msg += "\ndid you mean:\n  " + strings.Join(sug, "\n  ")
	}
	return fmt.Errorf("%s\ntargets are the algorithm names %v or any experiment id ('bandsim list')", msg, traceTargetNames())
}

// runTrace executes the named target and prints a per-superstep timeline:
// work, h, injection steps, max per-step load, overloads, c_m and the
// superstep's charged cost. An algorithm name runs on a dedicated BSP(m)
// machine and takes no parameters. An experiment id runs under the quick
// preset overlaid with sets, validated as `bandsim run` validates them, with
// a run observer that each of its machines is built with, so the timeline
// covers every machine (BSP, QSM, PRAM) the experiment drives, in commit
// order.
func runTrace(w io.Writer, name string, seed uint64, sets map[string]string, csv bool) error {
	var steps []engine.StepStats
	obs := engine.ObserverFunc(func(st engine.StepStats) {
		steps = append(steps, st)
	})
	if fn, ok := traceTargets[name]; ok {
		if len(sets) > 0 {
			return fmt.Errorf("trace target %q is an algorithm and takes no -set parameters; -set applies to experiment ids", name)
		}
		fn(bsp.New(bsp.Config{P: 256, Cost: model.BSPm(32, 4), Seed: seed, Observer: obs}), seed)
		printTimeline(w, fmt.Sprintf("superstep timeline: %s (p=256, m=32, L=4)", name), steps, "supersteps", csv)
		return nil
	}
	e, ok := harness.ByID(name)
	if !ok {
		return unknownTraceTargetError(name)
	}
	params := harness.QuickParams()
	for k, v := range sets {
		params[k] = v
	}
	if _, err := e.Resolve(params); err != nil {
		return err
	}
	e.Run(io.Discard, harness.Config{Seed: seed, Params: params, Observer: obs})
	printTimeline(w, fmt.Sprintf("superstep timeline: %s (quick, seed %d)", e.ID, seed), steps, "machine steps", csv)
	return nil
}

// printTimeline prints recorded steps one row each, in commit order, with the
// running simulated time, then a total line counting the steps as unit.
func printTimeline(w io.Writer, title string, steps []engine.StepStats, unit string, csv bool) {
	t := tablefmt.New(title,
		"superstep", "machine", "step", "work", "h", "msgs", "steps", "maxload", "overloads", "c_m", "cost", "cum time")
	cum := 0.0
	for i, st := range steps {
		cum += st.Cost
		t.Row(i, st.Machine, st.Index, st.W, st.H, st.N, st.Steps, st.MaxSlot, st.Overload, st.CM, st.Cost, cum)
	}
	if csv {
		fmt.Fprint(w, t.CSV())
	} else {
		fmt.Fprintln(w, t.String())
	}
	fmt.Fprintf(w, "total simulated time: %.1f over %d %s\n", cum, len(steps), unit)
}
