package pram

import (
	"reflect"
	"testing"

	"parbw/internal/engine"
)

// A machine built from engine.Options must behave identically to one built
// from the equivalent Config — same simulated time, same observed sequence of
// steps — and Variant names map onto the Mode constants.
func TestNewFromOptionsEquivalent(t *testing.T) {
	cases := []struct {
		variant string
		mode    Mode
	}{
		{"", EREW},
		{"EREW", EREW},
		{"QRQW", QRQW},
		{"CRCW-Common", CRCWCommon},
		{"CRCW-Arbitrary", CRCWArbitrary},
		{"CRCW-Priority", CRCWPriority},
	}
	for _, tc := range cases {
		m := New(engine.Options{Procs: 8, Mem: 16, Variant: tc.variant, Seed: 3})
		if m.Mode() != tc.mode {
			t.Fatalf("variant %q: mode %v, want %v", tc.variant, m.Mode(), tc.mode)
		}
	}

	var sa, sb []engine.StepStats
	a := New(Config{P: 8, Mem: 16, Mode: QRQW, Seed: 3,
		Observer: engine.ObserverFunc(func(st engine.StepStats) { sa = append(sa, st) })})
	b := New(engine.Options{Procs: 8, Mem: 16, Variant: "QRQW", Seed: 3,
		Observer: engine.ObserverFunc(func(st engine.StepStats) { sb = append(sb, st) })})
	for s := 0; s < 3; s++ {
		body := func(c *Ctx) {
			v := c.Read(c.RNG().Intn(8))
			c.Write(8+c.ID(), v+1)
		}
		a.Step(body)
		b.Step(body)
	}
	if a.Time() != b.Time() || len(sa) != 3 || !reflect.DeepEqual(sa, sb) {
		t.Fatalf("Config vs Options diverge: time %g/%g steps %+v/%+v", a.Time(), b.Time(), sa, sb)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("unknown variant did not panic")
		}
	}()
	New(engine.Options{Procs: 2, Mem: 2, Variant: "CREW"})
}
