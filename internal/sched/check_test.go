package sched

import (
	"testing"

	"parbw/internal/work"
)

// The contract between work.CheckSends and the panicking compile path: a
// plan passes CheckSends if and only if every scheduler accepts it.
func TestCheckSendsMatchesCompile(t *testing.T) {
	plans := []Plan{
		rowsPlan([]work.Send{{Dst: 1}}, []work.Send{{Dst: 0}}),
		rowsPlan([]work.Send{{Dst: 9}}, nil),
		rowsPlan(nil, nil, []work.Send{{Dst: 0}}),
		rowsPlan([]work.Send{{Dst: 0, Len: -1}}, nil),
		{Sends: []work.Send{{Proc: -1, Dst: 0}}},
		{},
	}
	for pi, plan := range plans {
		err := work.CheckSends(2, plan.Sends)
		for _, a := range algos {
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				a.run(machine(2, 2, 1, 1), plan, Options{KnownN: 8})
				return
			}()
			if (err != nil) != panicked {
				t.Fatalf("plan %d: CheckSends err=%v but %s panicked=%v", pi, err, a.name, panicked)
			}
		}
	}
}

// FuzzCheckSends checks the rejection contract for scheduler plans:
// work.CheckSends never panics, and a plan it accepts runs under
// UnbalancedSend without panicking. Each send decodes from a 3-byte
// (proc, dst, len) group of signed bytes.
func FuzzCheckSends(f *testing.F) {
	f.Add(2, []byte{0, 1, 1, 1, 0, 1})
	f.Add(4, []byte{0, 9, 1})   // bad dst
	f.Add(3, []byte{1, 0, 255}) // negative len byte pattern
	f.Add(3, []byte{5, 0, 0})   // bad proc
	f.Fuzz(func(t *testing.T, procs int, data []byte) {
		if procs < 1 || procs > 32 {
			procs = 1 + (procs&0x7fffffff)%32
		}
		plan := &work.Step{}
		for i := 0; i+3 <= len(data) && len(plan.Sends) < 128; i += 3 {
			plan.Sends = append(plan.Sends, work.Send{
				Proc: int(int8(data[i])),
				Dst:  int(int8(data[i+1])),
				Len:  int(int8(data[i+2])),
			})
		}
		if err := work.CheckSends(procs, plan.Sends); err != nil { // must never panic
			return
		}
		m := machine(procs, 2, 1, 1)
		UnbalancedSend(m, plan, Options{KnownN: 1 << 10})
	})
}
