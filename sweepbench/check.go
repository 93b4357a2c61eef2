package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"

	"parbw/internal/harness"
	"parbw/internal/runstore"
)

// checkAll is the correctness-only mode: every workload (or the named one)
// runs its digest and count checks with no timed window, and cluster-sweep
// must serve the digest and engine counts cold-sweep served for the same
// grid.
func checkAll(cfg runConfig, only string, pins map[string]string) int {
	cfg.seconds, cfg.trace = 0, false
	cfg.bootSamples = 1
	results := map[string]*outcome{}
	rep := report{Correct: true, Metrics: map[string]metric{}}
	var problems []string
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		o := runWorkload(cfg, w, pins)
		results[w.name] = o
		rep.Attempted += o.verified
		problems = append(problems, o.problems...)
		ref := "-"
		if c, ok := o.refs[0]; ok {
			ref = c.String()
		}
		fmt.Printf("%-14s digests %v  %d cells verified  engine %s\n", w.name, o.digests, o.verified, ref)
		o.reportKnown()
	}
	cold, clu := results[wlCold], results[wlCluster]
	if cold != nil && clu != nil {
		if fmt.Sprint(cold.digests) != fmt.Sprint(clu.digests) {
			problems = append(problems, fmt.Sprintf("cluster-sweep digests %v differ from cold-sweep %v", clu.digests, cold.digests))
		}
		if a, b := cold.refs[0], clu.refs[0]; a != b {
			problems = append(problems, fmt.Sprintf("cluster-sweep engine counts %s differ from cold-sweep %s", b, a))
		}
	}
	for _, p := range problems {
		fmt.Printf("FAIL %s\n", p)
	}
	if len(problems) > 0 || rep.Attempted == 0 {
		rep.Correct, rep.Failed = false, max(len(problems), 1)
		rep.Attempted = max(rep.Attempted, rep.Failed)
	}
	data, _ := json.Marshal(rep)
	fmt.Println(string(data))
	if !rep.Correct {
		return 1
	}
	return 0
}

// pinCell is one cell a workload can draw.
type pinCell struct {
	exp    harness.Experiment
	seed   uint64
	params map[string]string
}

// pinnable lists every cell any --seed can put in a grid: the quick
// preset of every experiment over seeds 1..coldPool, and the large-p grid
// over seeds 1..largePool.
func pinnable() []pinCell {
	var cells []pinCell
	for _, e := range harness.All() {
		for s := uint64(1); s <= coldPool; s++ {
			cells = append(cells, pinCell{e, s, map[string]string{"quick": "true"}})
		}
	}
	for _, id := range largeExperiments {
		e, _ := harness.ByID(id)
		for _, p := range largeP {
			for s := uint64(1); s <= largePool; s++ {
				cells = append(cells, pinCell{e, s, map[string]string{"quick": "true", "p": strconv.Itoa(int(p.(float64)))}})
			}
		}
	}
	return cells
}

// pinAll computes every pinnable cell directly through the harness — not
// through the service — and writes the sha256 of its canonical result
// bytes, which are the bytes the run store holds, under its run-store key.
func pinAll(path string) error {
	cells := pinnable()
	pins := make(map[string]string, len(cells))
	var mu sync.Mutex
	var firstErr error
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for _, c := range cells {
		wg.Add(1)
		sem <- struct{}{}
		go func(c pinCell) {
			defer wg.Done()
			defer func() { <-sem }()
			key, data, err := computeCell(c)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			pins[key] = sum256(data)
		}(c)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if err := writePins(path, pins); err != nil {
		return err
	}
	fmt.Printf("pinned %d cells to %s\n", len(pins), path)
	return nil
}

// computeCell resolves a cell the way the service does at admission and
// runs it the way service.DefaultRunner does.
func computeCell(c pinCell) (key string, data []byte, err error) {
	vals, err := c.exp.Resolve(c.params)
	if err != nil {
		return "", nil, fmt.Errorf("%s: %w", c.exp.ID, err)
	}
	key = runstore.Key(runstore.KeySpec{Experiment: c.exp.ID, Seed: c.seed, Params: vals.Canonical(), Version: harness.CodeVersion})
	res := c.exp.Run(io.Discard, harness.Config{Seed: c.seed, Params: paramMap(vals.ResultParams(0).Values)})
	data, err = res.CanonicalJSON()
	if err != nil {
		return "", nil, fmt.Errorf("%s seed %d: %w", c.exp.ID, c.seed, err)
	}
	return key, data, nil
}
