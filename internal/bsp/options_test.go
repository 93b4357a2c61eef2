package bsp

import (
	"reflect"
	"testing"

	"parbw/internal/engine"
	"parbw/internal/model"
)

// A machine built from engine.Options must behave identically to one built
// from the equivalent Config: same cost model, same RNG derivation, same
// simulated time and the same sequence of superstep stats.
func TestNewFromOptionsEquivalent(t *testing.T) {
	run := func(m *Machine) []Stats {
		p := m.P()
		var out []Stats
		for s := 0; s < 3; s++ {
			out = append(out, m.Superstep(func(c *Ctx) {
				c.Charge(2)
				c.Send((c.ID()+c.RNG().Intn(p-1)+1)%p, 1, int64(c.ID()))
			}))
		}
		return out
	}
	cases := []struct {
		name string
		cfg  Config
		opts engine.Options
	}{
		{"bspm", Config{P: 32, Cost: model.BSPm(8, 4), Seed: 7}, engine.Options{Procs: 32, M: 8, L: 4, Seed: 7}},
		{"bspg", Config{P: 32, Cost: model.BSPg(2, 4), Seed: 7}, engine.Options{Procs: 32, G: 2, L: 4, Seed: 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := New(tc.cfg), New(tc.opts)
			if a.Cost().Kind != b.Cost().Kind {
				t.Fatalf("cost kinds differ: %v vs %v", a.Cost().Kind, b.Cost().Kind)
			}
			sa, sb := run(a), run(b)
			if a.Time() != b.Time() {
				t.Fatalf("model time differs: Config %g vs Options %g", a.Time(), b.Time())
			}
			if !reflect.DeepEqual(sa, sb) {
				t.Fatalf("superstep stats differ:\n%+v\nvs\n%+v", sa, sb)
			}
		})
	}
}
