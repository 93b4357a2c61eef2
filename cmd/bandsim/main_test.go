package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parbw/internal/harness"
)

func TestRunTraceTargets(t *testing.T) {
	for name := range traceTargets {
		var buf bytes.Buffer
		if err := runTrace(&buf, name, 1, nil, false); err != nil {
			t.Fatalf("trace %s: %v", name, err)
		}
		out := buf.String()
		if !strings.Contains(out, "superstep timeline") || !strings.Contains(out, "total simulated time") {
			t.Fatalf("trace %s output malformed:\n%s", name, out)
		}
	}
}

func TestRunTraceCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := runTrace(&buf, "broadcast", 1, nil, true); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "superstep,") {
		t.Fatalf("CSV trace missing header: %q", buf.String()[:40])
	}
}

func TestRunTraceUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := runTrace(&buf, "nope", 1, nil, false); err == nil {
		t.Fatal("unknown target accepted")
	}
}

// A registered experiment id is a valid trace target: the engine observer
// records every superstep of every machine the experiment drives.
func TestRunTraceExperimentID(t *testing.T) {
	var buf bytes.Buffer
	if err := runTrace(&buf, "table1/broadcast", 1, nil, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "superstep timeline: table1/broadcast") {
		t.Fatalf("missing timeline header:\n%s", out)
	}
	// The Table 1 broadcast experiment drives both message-passing and
	// shared-memory machines; the combined timeline should name each family.
	if !strings.Contains(out, "bsp") || !strings.Contains(out, "qsm") {
		t.Fatalf("timeline missing machine families:\n%s", out)
	}
	if !strings.Contains(out, "total simulated time") {
		t.Fatalf("missing summary line:\n%s", out)
	}
}

// Mistyped trace targets suggest close matches from both the legacy
// algorithm names and the experiment registry, and the error is non-nil so
// main exits non-zero.
func TestRunTraceUnknownSuggests(t *testing.T) {
	var buf bytes.Buffer
	err := runTrace(&buf, "brodcast", 1, nil, false)
	if err == nil {
		t.Fatal("mistyped target accepted")
	}
	if !strings.Contains(err.Error(), "did you mean") || !strings.Contains(err.Error(), "broadcast") {
		t.Fatalf("missing suggestion: %v", err)
	}
	err = runTrace(&buf, "table1/brodcast", 1, nil, false)
	if err == nil {
		t.Fatal("mistyped experiment id accepted")
	}
	if !strings.Contains(err.Error(), "table1/broadcast") {
		t.Fatalf("missing registry suggestion: %v", err)
	}
}

// -set reaches an experiment trace through the same validation `bandsim
// run` applies: a valid assignment changes the traced sweep, an unknown
// name is an error, and an algorithm target, which has no parameters,
// rejects any assignment.
func TestRunTraceSetParams(t *testing.T) {
	var def, set bytes.Buffer
	if err := runTrace(&def, "table1/broadcast", 1, nil, true); err != nil {
		t.Fatal(err)
	}
	if err := runTrace(&set, "table1/broadcast", 1, map[string]string{"p": "64"}, true); err != nil {
		t.Fatal(err)
	}
	if strings.Count(set.String(), "\n") >= strings.Count(def.String(), "\n") {
		t.Fatalf("-set p=64 did not narrow the traced sweep:\n%s", set.String())
	}
	var buf bytes.Buffer
	err := runTrace(&buf, "table1/broadcast", 1, map[string]string{"bogus": "1"}, false)
	var unknown *harness.UnknownParamError
	if !errors.As(err, &unknown) {
		t.Fatalf("unknown parameter: err = %v, want an UnknownParamError", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("rejected trace printed output:\n%s", buf.String())
	}
	if err := runTrace(&buf, "broadcast", 1, map[string]string{"p": "64"}, false); err == nil {
		t.Fatal("-set on an algorithm target accepted")
	}
}

func TestUnknownIDMessageSuggests(t *testing.T) {
	msg := unknownIDMessage("table1/brodcast")
	if !strings.Contains(msg, `unknown experiment "table1/brodcast"`) {
		t.Fatalf("message missing id: %q", msg)
	}
	if !strings.Contains(msg, "did you mean") || !strings.Contains(msg, "table1/broadcast") {
		t.Fatalf("message missing suggestion: %q", msg)
	}
}

func TestUnknownIDMessageNoMatches(t *testing.T) {
	msg := unknownIDMessage("zzzzqqq")
	if !strings.Contains(msg, "bandsim list") {
		t.Fatalf("fallback hint missing: %q", msg)
	}
	if strings.Contains(msg, "did you mean") {
		t.Fatalf("bogus suggestions for nonsense id: %q", msg)
	}
}

func TestExportAll(t *testing.T) {
	dir := t.TempDir()
	if err := exportAll(dir, harness.Config{Seed: 1, Params: harness.QuickParams()}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(harness.All()) {
		t.Fatalf("exported %d files, want %d", len(entries), len(harness.All()))
	}
	b, err := os.ReadFile(filepath.Join(dir, "table1_broadcast.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "p,model,measured") {
		t.Fatalf("CSV header missing: %q", string(b)[:60])
	}
}

func TestSetFlags(t *testing.T) {
	s := setFlags{}
	for _, v := range []string{"p=64", " g = 8 ", "p=128", "eps=0.5"} {
		if err := s.Set(v); err != nil {
			t.Fatalf("Set(%q): %v", v, err)
		}
	}
	if s["p"] != "128" || s["g"] != "8" || s["eps"] != "0.5" {
		t.Fatalf("setFlags = %v", s)
	}
	if got := s.String(); got != "eps=0.5,g=8,p=128" {
		t.Fatalf("String() = %q", got)
	}
	for _, bad := range []string{"", "noequals", "=5"} {
		if err := s.Set(bad); err == nil {
			t.Fatalf("Set(%q) accepted", bad)
		}
	}
}

func TestExportAllRejectsBadParams(t *testing.T) {
	dir := t.TempDir()
	err := exportAll(dir, harness.Config{Seed: 1, Params: map[string]string{"bogus": "1"}})
	if err == nil {
		t.Fatal("exportAll accepted an undeclared param")
	}
}
