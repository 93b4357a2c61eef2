package main

import (
	"sort"

	"parbw/internal/harness"
	"parbw/internal/service"
	"parbw/internal/xrand"
)

// Every cell a workload can draw comes from these pools, and pins.json pins
// each of them, so any --seed is checked against pinned model bytes.
const (
	coldPool           = 16  // quick-preset seeds 1..coldPool of every experiment
	coldGridSeeds      = 4   // seeds per cold grid: 33 experiments × 4 = 132 cells
	warmFillSeeds      = 12  // seeds filled for warm-hits: 396 cells > runstore.DefaultMaxMem
	warmReqSeeds       = 3   // seeds per warm-hits request (one experiment each)
	warmZipfAlpha      = 1.0 // popularity skew of the warm-hits experiment draw
	warmSettleRequests = 800 // per client, untimed, before the warm-hits window
	warmCheckRequests  = 400 // per client, in the correctness-only pass
	largePool          = 4   // seeds 1..largePool of the large-p grid, one grid per seed
)

// largeExperiments × largeP is the large-p grid. sched/flits is left out on
// purpose: its traffic, and so its memory, grows as p².
var (
	largeExperiments = []string{"sched/static", "sched/granular", "ablation/eps", "ablation/wraparound"}
	largeP           = []any{16384.0, 32768.0}
)

// partition deals the seeds 1..pool, shuffled by (seed, label), into
// groups of k, each in ascending order.
func partition(seed uint64, label string, pool, k int) [][]uint64 {
	perm := xrand.Derive(seed, "sweepbench/"+label).Perm(pool)
	groups := make([][]uint64, pool/k)
	for g := range groups {
		for _, i := range perm[g*k : (g+1)*k] {
			groups[g] = append(groups[g], uint64(i+1))
		}
		sort.Slice(groups[g], func(i, j int) bool { return groups[g][i] < groups[g][j] })
	}
	return groups
}

// coldGridsFor returns the grids a cold-sweep or cluster-sweep run cycles
// through: every experiment's quick preset over coldGridSeeds seeds each,
// the seed pool dealt out among the grids. Which cells share the service's
// workers moves one grid's sweep time by up to ±10%; cycling through a
// partition of the whole pool keeps that from deciding a run's figure.
func coldGridsFor(seed uint64) []service.RunRequest {
	var out []service.RunRequest
	for _, seeds := range partition(seed, "cold", coldPool, coldGridSeeds) {
		out = append(out, service.RunRequest{Experiments: []string{"all"}, Seeds: seeds, Quick: true})
	}
	return out
}

// largeGridsFor returns the large-p grids of a run, one per pool seed in a
// seeded order: the four experiments at both large p.
func largeGridsFor(seed uint64) []service.RunRequest {
	var out []service.RunRequest
	for _, seeds := range partition(seed, "large", largePool, 1) {
		out = append(out, service.RunRequest{
			Experiments: largeExperiments,
			Seeds:       seeds,
			Params:      map[string]any{"p": largeP},
			Quick:       true,
		})
	}
	return out
}

// warmFill is the warm-hits set-up request: every experiment over
// warmFillSeeds seeds of the pool.
func warmFill(seed uint64) service.RunRequest {
	seeds := partition(seed, "warm", coldPool, warmFillSeeds)[0]
	return service.RunRequest{Experiments: []string{"all"}, Seeds: seeds, Quick: true}
}

// warmGen generates one warm-hits client's request sequence: one
// experiment of the fill per request, drawn from a Zipf over a fixed
// popularity order shared by all clients and seeds, over warmReqSeeds of the filled
// seeds.
type warmGen struct {
	order []string
	seeds []uint64
	zipf  *xrand.Zipf
	rng   *xrand.Source
}

func newWarmGen(seed uint64, stream string, fill service.RunRequest) *warmGen {
	ids := fill.Experiments
	if len(ids) == 1 && ids[0] == "all" {
		ids = nil
		for _, e := range harness.All() {
			ids = append(ids, e.ID)
		}
	}
	order := make([]string, len(ids))
	// The popularity order is the same for every seed: which experiment
	// is the most popular sets much of the cost of a request, so a
	// seeded order would make the seed, not the code, decide the figure.
	for i, j := range xrand.Derive(0, "sweepbench/warm/popularity").Perm(len(ids)) {
		order[i] = ids[j]
	}
	rng := xrand.Derive(seed, "sweepbench/warm/"+stream)
	return &warmGen{order: order, seeds: fill.Seeds, zipf: xrand.NewZipf(rng, len(order), warmZipfAlpha), rng: rng}
}

func (g *warmGen) next() service.RunRequest {
	exp := g.order[g.zipf.Draw()]
	perm := g.rng.Perm(len(g.seeds))
	seeds := make([]uint64, warmReqSeeds)
	for i := range seeds {
		seeds[i] = g.seeds[perm[i]]
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	return service.RunRequest{Experiments: []string{exp}, Seeds: seeds, Quick: true}
}
