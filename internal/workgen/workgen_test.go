package workgen

import (
	"bytes"
	"strings"
	"testing"

	"parbw/internal/bsp"
	"parbw/internal/model"
	"parbw/internal/sched"
	"parbw/internal/work"
)

func TestGenerateDeterministic(t *testing.T) {
	for _, fam := range Families() {
		for seed := uint64(0); seed < 50; seed++ {
			a, err := Generate(GenConfig{Family: fam, Seed: seed}).Encode()
			if err != nil {
				t.Fatal(err)
			}
			b, err := Generate(GenConfig{Family: fam, Seed: seed}).Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("%s seed %d: two generations differ:\n%s\n%s", fam, seed, a, b)
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, _ := Generate(GenConfig{Family: FamilyHRel, Seed: 1}).Encode()
	b, _ := Generate(GenConfig{Family: FamilyHRel, Seed: 2}).Encode()
	if bytes.Equal(a, b) {
		t.Fatal("distinct seeds produced identical workloads")
	}
}

// Golden bytes pin the cross-platform encoding of one small workload. If
// this test breaks, every checked-in corpus entry is invalidated — bump
// Version instead of re-capturing.
func TestGenerateByteStability(t *testing.T) {
	w := Generate(GenConfig{Family: FamilyBalls, Seed: 7, P: 4, M: 2, L: 1, Steps: 1, Load: 1})
	got, err := w.Encode()
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"version":1,"family":"balls","seed":7,"p":4,"m":2,"l":1,"steps":[{"sends":[{"proc":1,"slot":0,"dst":2,"len":1},{"proc":2,"slot":1,"dst":2,"len":1},{"proc":2,"slot":2,"dst":2,"len":1},{"proc":3,"slot":2,"dst":2,"len":1}]}],"total_sends":4,"total_flits":4}` + "\n"
	if string(got) != want {
		t.Fatalf("encoding drifted:\n got %s\nwant %s", got, want)
	}
}

func TestGeneratedWorkloadsValidate(t *testing.T) {
	for _, fam := range Families() {
		for seed := uint64(0); seed < 200; seed++ {
			w := Generate(GenConfig{Family: fam, Seed: seed})
			if err := w.Validate(); err != nil {
				t.Fatalf("%s seed %d: generated workload invalid: %v", fam, seed, err)
			}
			sends, flits := w.CountSends()
			if sends != w.TotalSends || flits != w.TotalFlits {
				t.Fatalf("%s seed %d: declared totals (%d, %d) != actual (%d, %d)",
					fam, seed, w.TotalSends, w.TotalFlits, sends, flits)
			}
		}
	}
}

func TestPinnedConfigRespected(t *testing.T) {
	w := Generate(GenConfig{Family: FamilyHRel, Seed: 3, P: 8, M: 4, L: 2, Steps: 3, MaxLen: 1})
	if w.P != 8 || w.M != 4 || w.L != 2 || len(w.Steps) != 3 {
		t.Fatalf("pins ignored: p=%d m=%d l=%d steps=%d", w.P, w.M, w.L, len(w.Steps))
	}
	for _, step := range w.Steps {
		for _, s := range step.Sends {
			if s.Len != 1 {
				t.Fatalf("MaxLen=1 pin ignored: len %d", s.Len)
			}
		}
	}
}

func TestAdversarialRejected(t *testing.T) {
	// Every adversarial workload must be caught by Validate or by the
	// declared-totals cross-check — cleanly, without panicking.
	caught := 0
	for _, fam := range Families() {
		for seed := uint64(0); seed < 100; seed++ {
			w := Generate(GenConfig{Family: fam, Seed: seed, Adversarial: true})
			err := w.Validate()
			sends, flits := w.CountSends()
			lying := sends != w.TotalSends || flits != w.TotalFlits
			if err == nil && !lying {
				t.Fatalf("%s seed %d: adversarial workload passed all checks", fam, seed)
			}
			if err != nil {
				caught++
			}
		}
	}
	if caught == 0 {
		t.Fatal("no adversarial workload failed Validate — corruptor too weak")
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	w := Generate(GenConfig{Family: FamilyDAG, Seed: 11})
	enc, err := w.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := work.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("round trip changed bytes:\n%s\n%s", enc, enc2)
	}
}

func TestValidateRejectsTable(t *testing.T) {
	base := func() *work.IR {
		return Generate(GenConfig{Family: FamilyHRel, Seed: 5, P: 4, M: 2, Steps: 1})
	}
	cases := []struct {
		name    string
		mutate  func(*work.IR)
		wantErr string
	}{
		{"p zero", func(w *work.IR) { w.P = 0 }, "p=0 out of range"},
		{"p over cap", func(w *work.IR) { w.P = work.MaxP + 1 }, "out of range"},
		{"m over p", func(w *work.IR) { w.M = w.P + 1 }, "m=5 out of range"},
		{"negative l", func(w *work.IR) { w.L = -1 }, "l=-1 out of range"},
		{"too many steps", func(w *work.IR) { w.Steps = make([]work.Step, work.MaxSteps+1) }, "exceeds cap"},
		{"slot over cap", func(w *work.IR) { w.Steps[0].Sends[0].Slot = work.MaxSlot + 1 }, "exceeds cap"},
		{"len over cap", func(w *work.IR) { w.Steps[0].Sends[0].Len = work.MaxMsgLen + 1 }, "exceeds cap"},
		{"negative slot", func(w *work.IR) { w.Steps[0].Sends[0].Slot = -2 }, "negative slot"},
		{"bad dst", func(w *work.IR) { w.Steps[0].Sends[0].Dst = 9 }, "invalid dst"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := base()
			if len(w.Steps[0].Sends) == 0 {
				t.Fatal("fixture workload has no sends")
			}
			c.mutate(w)
			err := w.Validate()
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Validate = %v, want error containing %q", err, c.wantErr)
			}
		})
	}
}

func TestPlanAndHist(t *testing.T) {
	w := Generate(GenConfig{Family: FamilyHRel, Seed: 9, P: 6, M: 3, Steps: 2})
	for step := range w.Steps {
		plan := &w.Steps[step]
		if err := work.CheckSends(w.P, plan.Sends); err != nil {
			t.Fatalf("step %d: Plan invalid: %v", step, err)
		}
		m := bsp.New(bsp.Config{P: w.P, Cost: model.BSPm(w.M, w.L), Seed: 1})
		n := sched.NaiveSend(m, plan).N
		hist := w.Hist(step)
		histTotal := 0
		for _, c := range hist {
			histTotal += c
		}
		if histTotal != n {
			t.Fatalf("step %d: hist total %d != plan flits %d", step, histTotal, n)
		}
	}
}

func TestParseFamily(t *testing.T) {
	for _, fam := range Families() {
		if got, err := ParseFamily(string(fam)); err != nil || got != fam {
			t.Fatalf("ParseFamily(%q) = %v, %v", fam, got, err)
		}
	}
	if _, err := ParseFamily("zebra"); err == nil {
		t.Fatal("unknown family accepted")
	}
}

func TestDAGRespectsLayers(t *testing.T) {
	// Every DAG family workload must send only along layer-consecutive
	// edges; indirectly verified by determinism plus the fact that each
	// superstep validates. Here: at least one seed produces actual traffic.
	traffic := 0
	for seed := uint64(0); seed < 20; seed++ {
		w := Generate(GenConfig{Family: FamilyDAG, Seed: seed})
		traffic += w.TotalSends
	}
	if traffic == 0 {
		t.Fatal("20 DAG seeds produced zero sends")
	}
}

func TestRoundTripPreservesLyingTotals(t *testing.T) {
	w := Generate(GenConfig{Family: FamilyBalls, Seed: 4})
	w.TotalFlits += 7
	w.TotalSends -= 2
	enc, err := w.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := work.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalFlits != w.TotalFlits || back.TotalSends != w.TotalSends {
		t.Fatalf("declared totals not carried verbatim: %d/%d != %d/%d",
			back.TotalSends, back.TotalFlits, w.TotalSends, w.TotalFlits)
	}
}

func TestDAGFamilyCarriesPrecedence(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		w := Generate(GenConfig{Family: FamilyDAG, Seed: seed})
		if w.Prec == nil {
			t.Fatalf("seed %d: dag workload has no precedence layer", seed)
		}
		if w.Prec.Nodes() == 0 || len(w.Prec.Edges) == 0 {
			t.Fatalf("seed %d: degenerate precedence layer: %d nodes, %d edges",
				seed, w.Prec.Nodes(), len(w.Prec.Edges))
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// The layer survives the corpus encoding.
		b, err := w.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := work.Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.Prec == nil || got.Prec.Nodes() != w.Prec.Nodes() {
			t.Fatalf("seed %d: precedence layer lost in encode/decode", seed)
		}
	}
}

func TestValidateRejectsBadPrec(t *testing.T) {
	w := Generate(GenConfig{Family: FamilyDAG, Seed: 1})
	if w.Prec == nil {
		t.Skip("seed produced no prec")
	}
	w.Prec.Step[0] = len(w.Steps) + 5
	if err := w.Validate(); err == nil {
		t.Fatal("out-of-range prec step accepted")
	}
}

func TestHRelAndBallsCarryNoPrec(t *testing.T) {
	for _, fam := range []Family{FamilyHRel, FamilyBalls} {
		w := Generate(GenConfig{Family: fam, Seed: 3})
		if w.Prec != nil {
			t.Fatalf("%s: unexpected precedence layer", fam)
		}
		b, err := w.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if string(b) == "" || strings.Contains(string(b), `"prec"`) {
			t.Fatalf("%s: prec field leaked into encoding", fam)
		}
	}
}
