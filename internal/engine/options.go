package engine

import "parbw/internal/model"

// Options builds a BSP machine from plain numbers instead of a pre-built
// model.Cost: bsp.New accepts it beside bsp.Config. The bandwidth fields
// follow the paper's dichotomy — a positive M selects the globally-limited
// BSP(m) with aggregate bandwidth M and the exponential penalty, otherwise
// G is the per-processor gap of the locally-limited BSP(g). bsp.Config is
// the surface for everything else: another penalty, a custom model.Cost
// such as the self-scheduling BSP(m), an observer.
type Options struct {
	Procs int // number of simulated processors (>= 1)
	M     int // aggregate bandwidth of BSP(m); 0 selects BSP(g)
	G     int // per-processor gap of BSP(g)
	L     int // superstep latency
	Seed  uint64
}

// BSPCost resolves the options to a BSP cost model.
func (o Options) BSPCost() model.Cost {
	if o.M > 0 {
		return model.BSPm(o.M, o.L)
	}
	return model.BSPg(o.G, o.L)
}
