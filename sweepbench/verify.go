package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"parbw/internal/engine"
	"parbw/internal/harness"
	"parbw/internal/result"
	"parbw/internal/service"
)

// pinsJSON pins the sha256 of every cell's result bytes for every cell a
// workload can draw, keyed by run-store key. `--pin` regenerates it.
//
//go:embed pins.json
var pinsJSON []byte

// pinFile is the shape of pins.json.
type pinFile struct {
	CodeVersion string            `json:"code_version"`
	Cells       map[string]string `json:"cells"` // run-store key → hex sha256 of the result bytes
}

// loadPins decodes the embedded pins and refuses a file pinned for another
// code version: every key would miss, and the first mismatch would be
// reported cell by cell instead of once.
func loadPins(raw []byte) (map[string]string, error) {
	var pf pinFile
	if err := json.Unmarshal(raw, &pf); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	if pf.CodeVersion != harness.CodeVersion {
		return nil, fmt.Errorf("pins.json was pinned at code version %q, the program is at %q: regenerate it with --pin",
			pf.CodeVersion, harness.CodeVersion)
	}
	return pf.Cells, nil
}

func writePins(path string, cells map[string]string) error {
	data, err := json.MarshalIndent(pinFile{CodeVersion: harness.CodeVersion, Cells: cells}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sum256(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// digestOf folds (key, cell hash) pairs, in task order, into one model
// digest for a grid.
func digestOf(keys, hashes []string) string {
	h := sha256.New()
	for i := range keys {
		fmt.Fprintf(h, "%s %s\n", keys[i], hashes[i])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// unstable lists experiments whose result bytes are known to vary from run
// to run on a multi-core host: a program defect, not benchmark noise. Their
// cells still run in every grid and must still finish with a decodable
// result of the right experiment, but they are left out of the model digest,
// and a difference from the pinned reference bytes is reported as a known
// defect on every report instead of failing the run.
var unstable = map[string]string{
	"async/backpressure": "async.Machine runs its processors as goroutines over channels, so the simulated completion time depends on goroutine scheduling at GOMAXPROCS >= 2",
}

// gridCheck is the verdict on one finished job.
type gridCheck struct {
	Digest string            // digest of the bytes the job served, over stable cells
	Pinned string            // digest the pins predict for the same keys
	Errors []string          // one line per offending cell, capped
	Known  map[string][2]int // unstable experiment → cells differing from the pin, cells served
}

func (g gridCheck) OK() bool { return len(g.Errors) == 0 && g.Digest == g.Pinned }

// checkJob verifies every task of a finished job: done, with result bytes
// whose hash is the pinned one. It returns the grid digests either way.
func checkJob(view service.JobView, pins map[string]string) gridCheck {
	g := gridCheck{Known: map[string][2]int{}}
	var keys, got, want []string
	for _, t := range view.Tasks {
		sum := sum256(t.Result)
		pin, ok := pins[t.Key]
		if _, bad := unstable[t.Experiment]; bad {
			k := g.Known[t.Experiment]
			k[1]++
			if sum != pin {
				k[0]++
			}
			g.Known[t.Experiment] = k
			if r, err := result.Decode(t.Result); t.Status != service.StatusDone || err != nil || r.Experiment != t.Experiment {
				g.fail("%s seed %d: status %s, result does not decode as this experiment (%v)", t.Experiment, t.Seed, t.Status, err)
			}
			continue
		}
		keys, got, want = append(keys, t.Key), append(got, sum), append(want, pin)
		switch {
		case t.Status != service.StatusDone:
			g.fail("%s seed %d: status %s (%s)", t.Experiment, t.Seed, t.Status, t.Error)
		case len(t.Result) == 0:
			g.fail("%s seed %d: no result bytes", t.Experiment, t.Seed)
		case !ok:
			g.fail("%s seed %d %s: no pinned digest for key %s", t.Experiment, t.Seed, paramsString(t), t.Key)
		case pin != sum:
			g.fail("%s seed %d %s: result sha256 %s, pinned %s", t.Experiment, t.Seed, paramsString(t), sum[:16], pin[:16])
		}
	}
	g.Digest, g.Pinned = digestOf(keys, got), digestOf(keys, want)
	return g
}

func (g *gridCheck) fail(format string, args ...any) {
	const maxLines = 8
	if len(g.Errors) < maxLines {
		g.Errors = append(g.Errors, fmt.Sprintf(format, args...))
	}
}

func paramsString(t service.TaskView) string {
	parts := make([]string, len(t.Params))
	for i, p := range t.Params {
		parts[i] = p.Name + "=" + p.Value
	}
	return strings.Join(parts, ",")
}

// served collects a finished job's result bytes by key.
func served(view service.JobView) map[string][]byte {
	out := make(map[string][]byte, len(view.Tasks))
	for _, t := range view.Tasks {
		out[t.Key] = t.Result
	}
	return out
}

// sameBytes reports the first task of view whose bytes differ from want.
func sameBytes(view service.JobView, want map[string][]byte) error {
	for _, t := range view.Tasks {
		w, ok := want[t.Key]
		if !ok {
			return fmt.Errorf("%s seed %d: key %s was not stored during set-up", t.Experiment, t.Seed, t.Key)
		}
		if !bytes.Equal(t.Result, w) {
			return fmt.Errorf("%s seed %d: served %d bytes that differ from the %d stored during set-up",
				t.Experiment, t.Seed, len(t.Result), len(w))
		}
	}
	return nil
}

// counts is the part of engine.GlobalCounters that must repeat exactly for
// a repeated cold grid.
type counts struct {
	Supersteps, Messages, Overloads uint64
}

func countsSince(before engine.Counters) counts {
	after := engine.GlobalCounters()
	return counts{
		Supersteps: after.Supersteps - before.Supersteps,
		Messages:   after.Messages - before.Messages,
		Overloads:  after.Overloads - before.Overloads,
	}
}

func (c counts) String() string {
	return fmt.Sprintf("supersteps=%d messages=%d overloads=%d", c.Supersteps, c.Messages, c.Overloads)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
