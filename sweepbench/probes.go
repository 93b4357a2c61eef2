package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"parbw/internal/bsp"
	"parbw/internal/cluster"
	"parbw/internal/engine"
	"parbw/internal/harness"
	"parbw/internal/model"
	"parbw/internal/runstore"
	"parbw/internal/sched"
	"parbw/internal/workpool"
	"parbw/internal/xrand"
)

// Layer probes time calls into one layer's public functions from outside,
// at shapes taken from the workloads. Each reports the median of several
// timed batches.

// medianOf runs batches of fn and returns the median per-call duration.
func medianOf(batches, calls int, fn func()) time.Duration {
	xs := make([]float64, batches)
	for b := range xs {
		start := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		xs[b] = float64(time.Since(start)) / float64(calls)
	}
	return time.Duration(Summarize(xs).Median())
}

// probeEngine times bsp.Machine.Superstep at the default worker count: at
// the small p of the quick presets (every processor sends one message), and
// at p = 2^15 with two messages per processor, enough (≥ 2048 per step) for
// the parallel router to run.
func probeEngine(l *layers) {
	small := bsp.New(engine.Options{Procs: 64, M: 8, L: 4, Seed: 1})
	ring := func(c *bsp.Ctx) { c.Send((c.ID()+1)%c.P(), 0, 1) }
	l.probes["engine.step_us"] = float64(medianOf(9, 400, func() { small.Superstep(ring) }).Nanoseconds()) / 1e3

	const p = 1 << 15
	big := bsp.New(engine.Options{Procs: p, G: 1, L: 4, Seed: 1})
	two := func(c *bsp.Ctx) {
		c.Send((c.ID()+1)%p, 0, 1)
		c.Send((c.ID()+p/2)%p, 0, 1)
	}
	perStep := medianOf(7, 8, func() { big.Superstep(two) })
	l.probes["engine.msg_ns"] = float64(perStep.Nanoseconds()) / (2 * p)
}

// probeWorkpool times an empty ForChunks over 1024 indices at the default
// worker count and at one worker.
func probeWorkpool(l *layers) {
	noop := func(lo, hi int) {}
	for name, pool := range map[string]*workpool.Pool{"workpool.fanout_ns": workpool.New(0), "workpool.fanout_ns_1w": workpool.New(1)} {
		l.probes[name] = float64(medianOf(9, 2000, func() { pool.ForChunks(1024, noop) }).Nanoseconds())
	}
}

// probeSched times plan generation (the Zipf and uniform plans of
// sched/static) and UnbalancedSend at the large-p shape, p = 2^15, m = 16.
func probeSched(l *layers, seed uint64) {
	const p, perProc = 1 << 15, 16
	rng := xrand.New(seed)
	var plan sched.Plan
	l.probes["sched.plan_ms"] = float64(medianOf(3, 1, func() {
		plan = sched.ZipfPlan(rng, p, p*perProc, 1.2)
		sched.UniformPlan(rng, p, perProc)
	}).Nanoseconds()) / 1e6
	l.probes["sched.send_ms"] = float64(medianOf(3, 1, func() {
		m := bsp.New(bsp.Config{P: p, Cost: model.BSPm(16, 4), Seed: seed})
		sched.UnbalancedSend(m, plan, sched.Options{})
	}).Nanoseconds()) / 1e6
}

// probeStore replays result bytes served in this run through a throwaway
// store: PutBytes, GetBytes from memory, then GetBytes from disk through a
// freshly opened store. Synthetic keys make every put a new entry, and at
// most runstore.DefaultMaxMem of them keep every memory read a hit.
func probeStore(l *layers, dir string, samples [][]byte) error {
	if len(samples) == 0 {
		return fmt.Errorf("runstore probe: no result bytes to replay")
	}
	n := min(runstore.DefaultMaxMem, max(128, len(samples)))
	keys := make([]string, n)
	for i := range keys {
		h := sha256.Sum256([]byte(fmt.Sprintf("sweepbench-probe-%d", i)))
		keys[i] = hex.EncodeToString(h[:])
	}
	st, err := runstore.Open(dir, 0)
	if err != nil {
		return err
	}
	put, mem, disk := make([]float64, n), make([]float64, n), make([]float64, n)
	for i, k := range keys {
		start := time.Now()
		if err := st.PutBytes(k, samples[i%len(samples)]); err != nil {
			return err
		}
		put[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	for i, k := range keys {
		start := time.Now()
		if _, ok, err := st.GetBytes(k); err != nil || !ok {
			return fmt.Errorf("runstore probe: memory read of %s: ok=%v err=%v", k, ok, err)
		}
		mem[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	cold, err := runstore.Open(dir, 0)
	if err != nil {
		return err
	}
	for i, k := range keys {
		start := time.Now()
		if _, ok, err := cold.GetBytes(k); err != nil || !ok {
			return fmt.Errorf("runstore probe: disk read of %s: ok=%v err=%v", k, ok, err)
		}
		disk[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	l.probes["runstore.put_us"] = Summarize(put).Median()
	l.probes["runstore.get_mem_us"] = Summarize(mem).Median()
	l.probes["runstore.get_disk_us"] = Summarize(disk).Median()
	return nil
}

// probeForward times cluster.Client.Forward of one cached cell between two
// nodes of a fresh 3-node cluster: the forwarding layer's round trip with
// no compute behind it.
func probeForward(l *layers, root string) error {
	d, err := boot(root, 3, nil)
	if err != nil {
		return err
	}
	defer d.close()
	self := d.nodes[0].client
	e, _ := harness.ByID("table1/broadcast")
	vals, err := e.Resolve(map[string]string{"quick": "true"})
	if err != nil {
		return err
	}
	req := cluster.ForwardRequest{Experiment: e.ID, Params: paramMap(vals.ResultParams(0).Values)}
	for seed := uint64(1); ; seed++ {
		req.Seed = seed
		req.Key = runstore.Key(runstore.KeySpec{Experiment: e.ID, Seed: seed, Params: vals.Canonical(), Version: harness.CodeVersion})
		if self.Owner(req.Key) != self.Self() {
			break
		}
	}
	owner := self.Owner(req.Key)
	ctx := context.Background()
	if _, err := self.Forward(ctx, owner, req); err != nil { // computes and stores on the owner
		return err
	}
	var ferr error
	per := medianOf(9, 20, func() {
		res, err := self.Forward(ctx, owner, req)
		if err == nil && !res.RemoteCached {
			err = fmt.Errorf("forward probe: repeat forward was not a remote hit")
		}
		if err != nil && ferr == nil {
			ferr = err
		}
	})
	l.probes["cluster.forward_probe_ms"] = float64(per.Nanoseconds()) / 1e6
	return ferr
}

// runProbes runs every layer probe; samples are result bytes served in the
// run, replayed through the store probe.
func runProbes(l *layers, out string, seed uint64, samples [][]byte) {
	probeEngine(l)
	probeWorkpool(l)
	probeSched(l, seed)
	dir := filepath.Join(out, fmt.Sprintf("probe-store-%d-%d", os.Getpid(), dirSeq.Add(1)))
	defer os.RemoveAll(dir)
	if err := probeStore(l, dir, samples); err != nil {
		l.probeErr = append(l.probeErr, err.Error())
	}
	if err := probeForward(l, out); err != nil {
		l.probeErr = append(l.probeErr, err.Error())
	}
}
