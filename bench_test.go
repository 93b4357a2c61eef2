// Benchmarks regenerating the paper's quantitative results: one benchmark
// per Table 1 row and per theorem-level experiment. Each benchmark runs the
// corresponding algorithms on simulated machines and reports the *simulated
// model time* as custom metrics (simtime-local, simtime-global, and their
// ratio sep-x) alongside the usual wall-clock ns/op of the simulator itself.
//
// Run: go test -bench=. -benchmem
package parbw_test

import (
	"testing"

	"parbw/internal/async"
	"parbw/internal/bsp"
	"parbw/internal/collective"
	"parbw/internal/dynamic"
	"parbw/internal/emulate"
	"parbw/internal/model"
	"parbw/internal/netsim"
	"parbw/internal/pram"
	"parbw/internal/problems"
	"parbw/internal/qsm"
	"parbw/internal/sched"
	"parbw/internal/xrand"
)

const benchSeed = 1

func bspg(p, g, l int) *bsp.Machine {
	return bsp.New(bsp.Config{P: p, Cost: model.BSPg(g, l), Seed: benchSeed})
}

func bspmL(p, m, l int) *bsp.Machine {
	return bsp.New(bsp.Config{P: p, Cost: model.BSPmLinear(m, l), Seed: benchSeed})
}

func bspmE(p, m, l int) *bsp.Machine {
	return bsp.New(bsp.Config{P: p, Cost: model.BSPm(m, l), Seed: benchSeed})
}

func qsmg(p, mem, g int) *qsm.Machine {
	return qsm.New(qsm.Config{P: p, Mem: mem, Cost: model.QSMg(g), Seed: benchSeed})
}

func qsmmL(p, mem, m int) *qsm.Machine {
	c := model.QSMm(m)
	c.Penalty = model.LinearPenalty
	return qsm.New(qsm.Config{P: p, Mem: mem, Cost: c, Seed: benchSeed})
}

// report attaches the simulated times and separation to the benchmark.
func report(b *testing.B, local, global float64) {
	b.ReportMetric(local, "simtime-local")
	b.ReportMetric(global, "simtime-global")
	if global > 0 {
		b.ReportMetric(local/global, "sep-x")
	}
}

// --- Table 1, row 1 ---

func BenchmarkTable1OneToAll(b *testing.B) {
	p, g, l := 1024, 16, 8
	vals := make([]int64, p)
	var tl, tg float64
	for i := 0; i < b.N; i++ {
		lm := bspg(p, g, l)
		collective.OneToAllBSP(lm, 0, vals)
		gm := bspmL(p, p/g, l)
		collective.OneToAllBSP(gm, 0, vals)
		tl, tg = lm.Time(), gm.Time()
	}
	report(b, tl, tg)
}

// --- Table 1, row 2 ---

func BenchmarkTable1Broadcast(b *testing.B) {
	p, g, l := 4096, 8, 32
	var tl, tg float64
	for i := 0; i < b.N; i++ {
		lm := bspg(p, g, l)
		collective.BroadcastBSP(lm, 0, 1)
		gm := bspmL(p, p/g, l)
		collective.BroadcastBSP(gm, 0, 1)
		tl, tg = lm.Time(), gm.Time()
	}
	report(b, tl, tg)
}

func BenchmarkTable1BroadcastQSM(b *testing.B) {
	p, g := 4096, 8
	var tl, tg float64
	for i := 0; i < b.N; i++ {
		lm := qsmg(p, 2*p, g)
		collective.BroadcastQSM(lm, 0, 1)
		gm := qsmmL(p, 2*p, p/g)
		collective.BroadcastQSM(gm, 0, 1)
		tl, tg = lm.Time(), gm.Time()
	}
	report(b, tl, tg)
}

// --- Table 1, row 3 ---

func BenchmarkTable1Parity(b *testing.B) {
	p, g, l := 1024, 16, 16
	rng := xrand.New(benchSeed)
	bits := make([]int64, p)
	for i := range bits {
		bits[i] = int64(rng.Intn(2))
	}
	var tl, tg float64
	for i := 0; i < b.N; i++ {
		lm := bspg(p, g, l)
		problems.ParityBSP(lm, bits)
		gm := bspmL(p, p/g, l)
		problems.ParityBSP(gm, bits)
		tl, tg = lm.Time(), gm.Time()
	}
	report(b, tl, tg)
}

// --- Table 1, row 4 ---

func BenchmarkTable1ListRank(b *testing.B) {
	// Separation regime: large gap, small latency (the Ω(lg n/lg lg n)
	// separation of Table 1 row 4 needs g ≫ L, else L·rounds dominates
	// both models).
	p, g, l := 1024, 32, 2
	rng := xrand.New(benchSeed)
	list := problems.RandomList(rng, p)
	var tl, tg float64
	for i := 0; i < b.N; i++ {
		lm := bspg(p, g, l)
		problems.ListRankContractBSP(lm, list)
		gm := bspmL(p, p/g, l)
		problems.ListRankContractBSP(gm, list)
		tl, tg = lm.Time(), gm.Time()
	}
	report(b, tl, tg)
}

// --- Table 1, row 5 ---

func BenchmarkTable1Sort(b *testing.B) {
	p, g, l := 1024, 16, 8
	rng := xrand.New(benchSeed)
	keys := make([]int64, p)
	for i := range keys {
		keys[i] = int64(rng.Uint64() % 100003)
	}
	q := 8
	var tl, tg float64
	for i := 0; i < b.N; i++ {
		lm := bspg(p, g, l)
		problems.ColumnsortBSP(lm, keys, q)
		gm := bspmL(p, p/g, l)
		problems.ColumnsortBSP(gm, keys, q)
		tl, tg = lm.Time(), gm.Time()
	}
	report(b, tl, tg)
}

// --- Section 4.2: ternary non-receipt broadcast vs Theorem 4.1 ---

func BenchmarkBroadcastTernary(b *testing.B) {
	p, g, l := 6561, 8, 8
	var t float64
	for i := 0; i < b.N; i++ {
		m := bspg(p, g, l)
		collective.BroadcastTernaryBSPg(m, 1)
		t = m.Time()
	}
	b.ReportMetric(t, "simtime")
}

// --- Section 4.1: h-relation on the CRCW PRAM in O(h) ---

func BenchmarkHRelationCRCW(b *testing.B) {
	p, h := 64, 16
	plan := make([][]problems.HRelationMsg, p)
	for i := range plan {
		for j := 0; j < h; j++ {
			plan[i] = append(plan[i], problems.HRelationMsg{Dst: j, Val: int64(i + j)})
		}
	}
	var t float64
	for i := 0; i < b.N; i++ {
		m := pram.New(pram.Config{P: p, Mem: 2 * p, Mode: pram.CRCWArbitrary, Seed: benchSeed})
		problems.HRelationCRCW(m, plan)
		t = m.Time()
	}
	b.ReportMetric(t, "simtime")
	b.ReportMetric(t/float64(h), "simtime-per-h")
}

// --- Theorem 5.1: CRCW PRAM(m) step on the QSM(m) ---

func BenchmarkSimCRCWPRAMm(b *testing.B) {
	p, mm, cells := 512, 8, 64
	pm := emulate.PRAMm{Base: p, MCells: cells}
	rng := xrand.New(benchSeed)
	addr := make([]int, p)
	for i := range addr {
		addr[i] = rng.Intn(cells)
	}
	var t float64
	for i := 0; i < b.N; i++ {
		m := qsmmL(p, pm.Base+cells+3*p+8, mm)
		for a := 0; a < cells; a++ {
			m.Store(pm.Base+a, int64(a))
		}
		pm.SimulateCRCWRead(m, addr)
		t = m.Time()
	}
	b.ReportMetric(t, "simtime")
	b.ReportMetric(t/(float64(p)/float64(mm)), "x-of-p/m")
}

// --- Theorem 5.2: leader recognition CR vs ER ---

func BenchmarkLeaderRecognition(b *testing.B) {
	p, mm := 1024, 4
	rom := problems.LeaderInput(p, p/3)
	var tcr, ter float64
	for i := 0; i < b.N; i++ {
		cr := pram.New(pram.Config{P: p, Mem: mm, Mode: pram.CRCWArbitrary, ROM: rom, Seed: benchSeed})
		problems.LeaderCR(cr)
		er := pram.New(pram.Config{P: p, Mem: mm, Mode: pram.EREW, ROM: rom, Seed: benchSeed})
		problems.LeaderER(er, mm)
		tcr, ter = cr.Time(), er.Time()
	}
	report(b, ter, tcr) // "local" = exclusive read, "global" = concurrent
}

// --- Theorem 6.2: Unbalanced-Send ---

func BenchmarkUnbalancedSend(b *testing.B) {
	p, mm, l := 256, 64, 8
	rng := xrand.New(benchSeed)
	plan := sched.ZipfPlan(rng, p, 8192, 1.2)
	var t, opt float64
	for i := 0; i < b.N; i++ {
		m := bspmE(p, mm, l)
		r := sched.UnbalancedSend(m, plan, sched.Options{Eps: 0.25})
		t, opt = r.Time, r.OptimalOffline(mm, l)
	}
	b.ReportMetric(t, "simtime")
	b.ReportMetric(t/opt, "x-of-optimal")
}

// --- Theorem 6.3: Unbalanced-Consecutive-Send ---

func BenchmarkConsecutiveSend(b *testing.B) {
	p, mm, l := 128, 32, 4
	plan := sched.SkewedExchangePlan(p, p/8, 8, 1)
	var t, opt float64
	for i := 0; i < b.N; i++ {
		m := bspmE(p, mm, l)
		r := sched.UnbalancedConsecutiveSend(m, plan, sched.Options{Eps: 0.25})
		t, opt = r.Time, r.OptimalOffline(mm, l)
	}
	b.ReportMetric(t, "simtime")
	b.ReportMetric(t/opt, "x-of-optimal")
}

// --- Theorem 6.4: Unbalanced-Granular-Send ---

func BenchmarkGranularSend(b *testing.B) {
	p, mm, l := 512, 16, 4
	rng := xrand.New(benchSeed)
	plan := sched.ZipfPlan(rng, p, 8192, 1.0)
	var t, opt float64
	for i := 0; i < b.N; i++ {
		m := bspmE(p, mm, l)
		r := sched.UnbalancedGranularSend(m, plan, sched.Options{GranularC: 4})
		t, opt = r.Time, r.OptimalOffline(mm, l)
	}
	b.ReportMetric(t, "simtime")
	b.ReportMetric(t/opt, "x-of-optimal")
}

// --- Section 6.1 long-message / overhead variant ---

func BenchmarkFlitSend(b *testing.B) {
	p, mm, l := 128, 32, 4
	rng := xrand.New(benchSeed)
	plan := sched.UnbalancedExchangePlan(rng, p, 6).WithOverhead(2)
	var t float64
	for i := 0; i < b.N; i++ {
		m := bspmE(p, mm, l)
		r := sched.UnbalancedSend(m, plan, sched.Options{Eps: 0.25})
		t = r.Time
	}
	b.ReportMetric(t, "simtime")
}

// --- Section 2 / Theorem 6.2: self-scheduling emulation ---

func BenchmarkSelfScheduling(b *testing.B) {
	p, mm, l := 256, 64, 4
	rng := xrand.New(benchSeed)
	plan := sched.ZipfPlan(rng, p, 8192, 1.1)
	var tss, treal float64
	for i := 0; i < b.N; i++ {
		ss := bsp.New(bsp.Config{P: p, Cost: model.BSPSelfSched(mm, l), Seed: benchSeed})
		sres := sched.NaiveSend(ss, plan)
		real := bspmE(p, mm, l)
		rres := sched.UnbalancedSend(real, plan, sched.Options{Eps: 0.25, KnownN: sres.N})
		tss, treal = sres.Time, rres.Time
	}
	b.ReportMetric(tss, "simtime-selfsched")
	b.ReportMetric(treal, "simtime-realized")
	b.ReportMetric(treal/tss, "overhead-x")
}

// --- Theorem 6.5: BSP(g) dynamic stability ---

func BenchmarkDynamicBSPg(b *testing.B) {
	p, g, l := 16, 8, 4
	lmt := dynamic.Limits{W: 32, Alpha: 0.5, Beta: 0.5}
	adv := dynamic.SingleTargetAdversary{L: lmt}
	var backlog float64
	for i := 0; i < b.N; i++ {
		m := bspg(p, g, l)
		res := dynamic.RunBSPgInterval(m, adv, lmt, 60)
		backlog = float64(res.MaxBacklog)
	}
	b.ReportMetric(backlog, "max-backlog")
}

// --- Theorem 6.7: Algorithm B on the BSP(m) ---

func BenchmarkDynamicBSPm(b *testing.B) {
	p, mm, l := 32, 8, 2
	lmt := dynamic.Limits{W: 64, Alpha: 4, Beta: 0.9}
	var backlog, svc float64
	for i := 0; i < b.N; i++ {
		adv := dynamic.NewUniformAdversary(p, lmt, benchSeed)
		m := bspmE(p, mm, l)
		res := dynamic.RunAlgorithmB(m, adv, lmt, 80, 0.25)
		backlog = float64(res.MaxBacklog)
		svc = res.MeanService()
	}
	b.ReportMetric(backlog, "max-backlog")
	b.ReportMetric(svc, "mean-service")
}

// --- Section 4 grouping observation ---

func BenchmarkGroupEmulation(b *testing.B) {
	p, g, l := 256, 8, 8
	var tl, tg float64
	for i := 0; i < b.N; i++ {
		lm := bspg(p, g, l)
		lm.Superstep(func(c *bsp.Ctx) {
			for k := 0; k < 4; k++ {
				c.Send((c.ID()+k+1)%p, 0, 1)
			}
		})
		gm := bspmE(p, p/g, l)
		emulate.RunGroupedBSP(gm, g, func(c *bsp.Ctx, send func(int, bsp.Msg)) {
			for k := 0; k < 4; k++ {
				send((c.ID()+k+1)%p, bsp.Msg{A: 1})
			}
		})
		tl, tg = lm.Time(), gm.Time()
	}
	report(b, tl, tg)
}

// --- Engine micro-benchmarks (simulator throughput) ---

func BenchmarkBSPSuperstep(b *testing.B) {
	m := bspmL(1024, 64, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Superstep(func(c *bsp.Ctx) {
			c.SendAt(c.ID()%16, (c.ID()+1)%1024, bsp.Msg{A: 1})
		})
	}
}

func BenchmarkQSMPhase(b *testing.B) {
	m := qsmmL(1024, 2048, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Phase(func(c *qsm.Ctx) {
			c.WriteAt(c.ID()%16, c.ID(), int64(i))
		})
	}
}

func BenchmarkPRAMStep(b *testing.B) {
	m := pram.New(pram.Config{P: 1024, Mem: 1024, Mode: pram.CRCWArbitrary, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step(func(c *pram.Ctx) {
			c.Write(c.ID(), int64(i))
		})
	}
}

// --- Extension systems ---

func BenchmarkAsyncBackpressure(b *testing.B) {
	p, mm, per := 128, 16, 32
	var done float64
	for i := 0; i < b.N; i++ {
		ma := async.New(async.Config{P: p, M: mm, Latency: 4})
		done = ma.Run(func(pr *async.Proc) {
			for k := 0; k < per; k++ {
				pr.Send((pr.ID()+1+k)%p, int64(k))
			}
			for k := 0; k < per; k++ {
				pr.Recv()
			}
		})
	}
	b.ReportMetric(done, "simtime")
	b.ReportMetric(done/(float64(p*per)/float64(mm)), "x-of-n/m")
}

func BenchmarkChannelNetwork(b *testing.B) {
	p, mm := 64, 8
	x := make([]int, p)
	for i := range x {
		x[i] = 16
	}
	var paced, burst float64
	for i := 0; i < b.N; i++ {
		rng := xrand.New(benchSeed)
		pr := netsim.Run(netsim.Config{Sources: p, Channels: mm, Seed: benchSeed},
			netsim.UnbalancedSchedule(rng, x, mm, 4.0))
		br := netsim.Run(netsim.Config{Sources: p, Channels: mm, Seed: benchSeed},
			netsim.NaiveSchedule(x))
		paced, burst = float64(pr.Makespan), float64(br.Makespan)
	}
	b.ReportMetric(paced, "paced-makespan")
	b.ReportMetric(burst/paced, "burst-penalty-x")
}

func BenchmarkTable1SortQSM(b *testing.B) {
	p, g := 1024, 16
	rng := xrand.New(benchSeed)
	keys := make([]int64, p)
	for i := range keys {
		keys[i] = int64(rng.Uint64() % 100003)
	}
	var tl, tg float64
	for i := 0; i < b.N; i++ {
		lm := qsmg(p, p, g)
		problems.ColumnsortQSM(lm, keys, 8)
		gm := qsmmL(p, p, p/g)
		problems.ColumnsortQSM(gm, keys, 8)
		tl, tg = lm.Time(), gm.Time()
	}
	report(b, tl, tg)
}

func BenchmarkPRAMMapPrefixSum(b *testing.B) {
	n, mm := 256, 8
	var t float64
	for i := 0; i < b.N; i++ {
		prog, _ := emulate.PrefixDoublingSum(n)
		m := qsmmL(64, 2*n, mm)
		for j := 0; j < n; j++ {
			m.Store(j, 1)
		}
		emulate.RunPRAMOnQSM(m, prog)
		t = m.Time()
	}
	b.ReportMetric(t, "simtime")
}
