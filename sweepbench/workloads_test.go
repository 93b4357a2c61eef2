package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"parbw/internal/service"
)

// Smoke grids: a few pinned cells per workload, so each run takes seconds.
var (
	smokeGrid = service.RunRequest{
		Experiments: []string{"table1/broadcast", "sched/static", "async/backpressure"},
		Seeds:       []uint64{1, 2},
		Quick:       true,
	}
	smokeLarge = service.RunRequest{
		Experiments: []string{"sched/static"},
		Seeds:       []uint64{1},
		Params:      map[string]any{"p": 16384.0},
		Quick:       true,
	}
	smokeFill = service.RunRequest{
		Experiments: []string{"table1/broadcast", "table1/parity", "sched/static"},
		Seeds:       []uint64{1, 2, 3, 4},
		Quick:       true,
	}
)

func smokeWorkloads() []workload {
	grid := func(r service.RunRequest) func(uint64) []service.RunRequest {
		return func(uint64) []service.RunRequest { return []service.RunRequest{r} }
	}
	return []workload{
		{name: wlCold, nodes: 1, grids: grid(smokeGrid)},
		{name: wlWarm, nodes: 1, fill: func(uint64) service.RunRequest { return smokeFill }},
		{name: wlCluster, nodes: 3, grids: grid(smokeGrid)},
		{name: wlLarge, nodes: 1, grids: grid(smokeLarge)},
	}
}

func smokeConfig(t *testing.T, seconds float64) runConfig {
	return runConfig{out: t.TempDir(), seed: 7, seconds: seconds, bootSamples: 2, requestLimit: time.Minute}
}

func testPins(t *testing.T) map[string]string {
	t.Helper()
	pins, err := loadPins(pinsJSON)
	if err != nil {
		t.Fatal(err)
	}
	return pins
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second")
	}
	pins := testPins(t)
	for _, w := range smokeWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			o := runWorkload(smokeConfig(t, 0.5), w, pins)
			if len(o.problems) > 0 || o.failed > 0 {
				t.Fatalf("problems %q, %d of %d cells failed", o.problems, o.failed, o.attempted)
			}
			if len(o.latencies) == 0 || o.cells == 0 || o.wall <= 0 || len(o.cpuPerCell) == 0 || len(o.digests) == 0 {
				t.Fatalf("nothing measured: %d latencies, %d cells, wall %g, %d CPU samples, digests %v",
					len(o.latencies), o.cells, o.wall, len(o.cpuPerCell), o.digests)
			}
			m := endToEndMetrics(w, o)
			for _, d := range endToEnd {
				if v := m[d.Name].Value; !(v > 0) || math.IsInf(v, 0) || m[d.Name].Unit != d.Unit {
					t.Errorf("%s = %g %s", d.Name, v, m[d.Name].Unit)
				}
			}
		})
	}
}

// Two correctness-only passes over the same inputs must serve the same
// model digests and, for the sweeps, the same engine counts.
func TestDigestsStableAcrossCheckPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	pins := testPins(t)
	for _, w := range smokeWorkloads() {
		a := runWorkload(smokeConfig(t, 0), w, pins)
		b := runWorkload(smokeConfig(t, 0), w, pins)
		if len(a.problems)+len(b.problems) > 0 {
			t.Fatalf("%s: problems %q %q", w.name, a.problems, b.problems)
		}
		if len(a.digests) == 0 || !reflect.DeepEqual(a.digests, b.digests) || !reflect.DeepEqual(a.refs, b.refs) {
			t.Errorf("%s: digests %v vs %v, counts %v vs %v", w.name, a.digests, b.digests, a.refs, b.refs)
		}
	}
}

func TestCheckFailsOnBytesOffTheirPin(t *testing.T) {
	pins := testPins(t)
	view := service.JobView{Tasks: []service.TaskView{{Experiment: "table1/broadcast", Key: "k", Status: service.StatusDone, Result: []byte(`{}`)}}}
	if g := checkJob(view, pins); g.OK() || len(g.Errors) != 1 {
		t.Fatalf("an unpinned key passed: %+v", g)
	}
	for k := range pins {
		view.Tasks[0].Key = k
		break
	}
	if g := checkJob(view, pins); g.OK() || g.Digest == g.Pinned {
		t.Fatalf("bytes off their pin passed: %+v", g)
	}
}

func TestTracedSmokeReportsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs traced workloads and the layer probes")
	}
	names := map[string]bool{}
	ws := smokeWorkloads()
	for _, w := range []workload{ws[0], ws[2]} { // cold-sweep, and cluster-sweep for forwarding
		cfg := smokeConfig(t, 0.5)
		cfg.trace = true
		o := runWorkload(cfg, w, testPins(t))
		m := layerMetrics(w, o)
		if len(o.problems) > 0 {
			t.Fatalf("%s: problems %q", w.name, o.problems)
		}
		for _, d := range perLayer {
			v, ok := m[d.Name]
			if !ok || math.IsNaN(v.Value) || v.Unit != d.Unit {
				t.Errorf("%s: %s = %+v", w.name, d.Name, v)
			}
		}
		if m["engine.supersteps"].Value == 0 || m["service.retries"].Value != 0 || m["service.panics"].Value != 0 {
			t.Errorf("%s: supersteps %g retries %g panics %g", w.name, m["engine.supersteps"].Value, m["service.retries"].Value, m["service.panics"].Value)
		}
		if w.nodes > 1 && m["cluster.forwards"].Value == 0 {
			t.Errorf("%s: nothing forwarded", w.name)
		}
		for _, s := range o.layers.spans {
			names[s.Name] = true
			if s.Parent != 0 && s.ParentName == "" {
				t.Fatalf("%s: span %+v names no parent", w.name, s)
			}
		}
	}
	for _, n := range []string{"client.sweep", "client.post", "client.stream", "service.queue", "service.hit", "harness.run", "service.deliver", "cluster.forward"} {
		if !names[n] {
			t.Errorf("no %s span", n)
		}
	}
}

// BENCHMARK.json at the repository root must list exactly the workloads
// and metrics this program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, program has %v", names, workloadNames())
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, program has %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d] = %s %s, program has %s %s", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
