package qsm

import (
	"reflect"
	"slices"
	"testing"

	"parbw/internal/engine"
	"parbw/internal/model"
)

// A machine built from engine.Options must behave identically to one built
// from the equivalent Config: same simulated time and the same observed
// sequence of steps.
func TestNewFromOptionsEquivalent(t *testing.T) {
	run := func(m *Machine) model.Time {
		p := m.P()
		for s := 0; s < 3; s++ {
			m.Phase(func(c *Ctx) {
				c.Charge(1)
				c.Read(c.RNG().Intn(p))
				c.Write(p+c.ID(), int64(c.ID()))
			})
		}
		return m.Time()
	}
	cases := []struct {
		name string
		cfg  Config
		opts engine.Options
	}{
		{"qsmm", Config{P: 16, Mem: 32, Cost: model.QSMm(4), Seed: 5}, engine.Options{Procs: 16, Mem: 32, M: 4, Seed: 5}},
		{"qsmg", Config{P: 16, Mem: 32, Cost: model.QSMg(4), Seed: 5}, engine.Options{Procs: 16, Mem: 32, G: 4, Seed: 5}},
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
