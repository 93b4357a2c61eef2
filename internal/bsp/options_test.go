package bsp

import (
	"reflect"
	"slices"
	"testing"

	"parbw/internal/engine"
	"parbw/internal/model"
)

// A machine built from engine.Options must behave identically to one built
// from the equivalent Config: same cost model, same RNG derivation, same
// simulated time and the same observed sequence of steps.
func TestNewFromOptionsEquivalent(t *testing.T) {
	run := func(m *Machine) model.Time {
		p := m.P()
		for s := 0; s < 3; s++ {
			m.Superstep(func(c *Ctx) {
				c.Charge(2)
				c.Send((c.ID()+c.RNG().Intn(p-1)+1)%p, 1, int64(c.ID()))
			})
		}
		return m.Time()
	}
	cases := []struct {
		name string
		cfg  Config
		opts engine.Options
	}{
		{"bspm", Config{P: 32, Cost: model.BSPm(8, 4), Seed: 7}, engine.Options{Procs: 32, M: 8, L: 4, Seed: 7}},
		{"bspg", Config{P: 32, Cost: model.BSPg(2, 4), Seed: 7}, engine.Options{Procs: 32, G: 2, L: 4, Seed: 7}},
		{"bspm linear", Config{P: 32, Cost: model.BSPmLinear(8, 4), Seed: 7},
			engine.Options{Procs: 32, M: 8, L: 4, Penalty: model.LinearPenalty, Seed: 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sa, sb []engine.StepStats
			cfg, opts := tc.cfg, tc.opts
			cfg.Observer, opts.Observer = recorder(&sa), recorder(&sb)
			a, b := New(cfg), New(opts)
			if a.Cost().Kind != b.Cost().Kind {
				t.Fatalf("cost kinds differ: %v vs %v", a.Cost().Kind, b.Cost().Kind)
			}
			ta, tb := run(a), run(b)
			if ta != tb {
				t.Fatalf("model time differs: Config %g vs Options %g", ta, tb)
			}
			if len(sa) != 3 || !reflect.DeepEqual(sa, sb) {
				t.Fatalf("observed steps differ:\n%+v\nvs\n%+v", sa, sb)
			}
		})
	}
}

// recorder returns an observer appending every committed step to *into,
// with its histogram copied out of the engine's recycled buffer.
func recorder(into *[]engine.StepStats) engine.Observer {
	return engine.ObserverFunc(func(st engine.StepStats) {
		st.Hist = slices.Clone(st.Hist)
		*into = append(*into, st)
	})
}
