package engine

import "parbw/internal/model"

// Options is the v1 cross-machine construction surface: one struct accepted
// by bsp.New, qsm.New, and pram.New alike, selecting the cost model from
// plain numbers instead of a pre-built model.Cost. The bandwidth fields
// follow the paper's dichotomy — a positive M selects the globally-limited
// (m) variant of the machine, otherwise G selects the locally-limited (g)
// variant (for the PRAM, which has neither, both are ignored and Variant
// picks the memory discipline).
//
// The per-package Config structs are the surface nearly every caller uses,
// and the only one for knobs Options deliberately omits (a custom
// model.Cost such as the self-scheduling BSP(m), the PRAM's ROM and
// CellBits). Options suits code that picks the model from plain numbers.
type Options struct {
	Procs int // number of simulated processors (>= 1)
	Mem   int // shared-memory words (QSM and PRAM machines; ignored by BSP)

	// M > 0 selects the globally-limited variant — BSP(m) or QSM(m) — with
	// aggregate bandwidth M. When M == 0, G is the per-processor gap of the
	// locally-limited variant — BSP(g) or QSM(g).
	M int
	G int
	// L is the superstep latency of the BSP machines (ignored by QSM/PRAM).
	L int
	// Penalty overrides the per-step network charge f_m of an (m) variant;
	// nil selects the paper's exponential penalty f^u.
	Penalty model.Penalty
	// Variant names the PRAM memory discipline ("EREW", "QRQW",
	// "CRCW-Common", "CRCW-Arbitrary", "CRCW-Priority"); empty means EREW.
	// BSP and QSM machines ignore it.
	Variant string

	Seed  uint64
	Trace bool
	// Observer, if non-nil, receives a normalized StepStats callback after
	// every superstep of the machine built from these options.
	Observer Observer
}

// BSPCost resolves the options to a BSP cost model.
func (o Options) BSPCost() model.Cost {
	if o.M > 0 {
		c := model.BSPm(o.M, o.L)
		c.Penalty = o.Penalty
		return c
	}
	return model.BSPg(o.G, o.L)
}

// QSMCost resolves the options to a QSM cost model.
func (o Options) QSMCost() model.Cost {
	if o.M > 0 {
		c := model.QSMm(o.M)
		c.Penalty = o.Penalty
		return c
	}
	return model.QSMg(o.G)
}
