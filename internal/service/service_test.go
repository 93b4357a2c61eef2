package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parbw/internal/bsp"
	"parbw/internal/harness"
	"parbw/internal/model"
	"parbw/internal/result"
	"parbw/internal/runstore"
)

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Store == nil {
		st, err := runstore.Open(t.TempDir(), 32)
		if err != nil {
			t.Fatal(err)
		}
		opts.Store = st
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func postRuns(t *testing.T, ts *httptest.Server, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", path, data, err)
		}
	}
	return resp.StatusCode
}

func TestExperimentsEndpoint(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var out struct {
		Experiments []experimentInfo `json:"experiments"`
	}
	if code := getJSON(t, ts, "/experiments", &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(out.Experiments) != len(harness.All()) {
		t.Fatalf("%d experiments listed, registry has %d", len(out.Experiments), len(harness.All()))
	}
	found := false
	for _, e := range out.Experiments {
		if e.ID == "table1/broadcast" && e.Title != "" {
			found = true
		}
	}
	if !found {
		t.Fatal("table1/broadcast missing from listing")
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var out map[string]string
	if code := getJSON(t, ts, "/healthz", &out); code != http.StatusOK || out["status"] != "ok" {
		t.Fatalf("healthz: code=%d body=%v", code, out)
	}
}

// The acceptance path: POST /runs twice with identical id/params/seed. The
// second request must be served from the run store (visible in /statsz) and
// carry byte-identical result JSON.
func TestRepeatedRunServedFromStore(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"experiments":["table1/broadcast","sched/static"],"seeds":[1],"quick":true}`

	resultBytes := func(key string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/results/" + key)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/results/%s: status %d: %s", key, resp.StatusCode, raw)
		}
		return raw
	}

	code, first := postRuns(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("first POST: status %d: %s", code, first)
	}
	var j1 JobSummary
	if err := json.Unmarshal(first, &j1); err != nil {
		t.Fatal(err)
	}
	if j1.State != StatusDone || j1.TaskCount != 2 {
		t.Fatalf("first job: state=%s tasks=%d", j1.State, j1.TaskCount)
	}
	tasks1 := jobTasks(t, ts, j1.ID)
	if len(tasks1) != 2 {
		t.Fatalf("tasks page has %d entries, want 2", len(tasks1))
	}
	raw1 := make([][]byte, len(tasks1))
	for i, task := range tasks1 {
		if task.Cached {
			t.Fatalf("first run of %s reported cached", task.Experiment)
		}
		if len(task.Result) != 0 {
			t.Fatalf("tasks page for %s inlines the result payload; results live at /v1/results", task.Experiment)
		}
		raw1[i] = resultBytes(task.Key)
		if len(raw1[i]) == 0 {
			t.Fatalf("task %s has no stored result", task.Experiment)
		}
	}

	var st1 statsView
	getJSON(t, ts, "/statsz", &st1)

	code, second := postRuns(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("second POST: status %d", code)
	}
	var j2 JobSummary
	if err := json.Unmarshal(second, &j2); err != nil {
		t.Fatal(err)
	}
	for i, task := range jobTasks(t, ts, j2.ID) {
		if !task.Cached {
			t.Fatalf("second run of %s not served from store", task.Experiment)
		}
		if !bytes.Equal(resultBytes(task.Key), raw1[i]) {
			t.Fatalf("%s: repeated run JSON not byte-identical", task.Experiment)
		}
	}

	var st2 statsView
	getJSON(t, ts, "/statsz", &st2)
	if st2.Store.Hits < st1.Store.Hits+2 {
		t.Fatalf("store hits went %d -> %d, want +2", st1.Store.Hits, st2.Store.Hits)
	}
	if st2.Executor.TasksCached < 2 {
		t.Fatalf("executor cached-task counter = %d, want >= 2", st2.Executor.TasksCached)
	}

	// The first job drove real machines, so the process-wide engine counters
	// must be visible on /statsz; the second job was served from the store
	// and must not have advanced them.
	if st1.Engine.Supersteps == 0 || st1.Engine.Messages == 0 {
		t.Fatalf("engine counters not reported after a real run: %+v", st1.Engine)
	}
	if st2.Engine.Supersteps != st1.Engine.Supersteps {
		t.Fatalf("cached job advanced engine supersteps: %d -> %d",
			st1.Engine.Supersteps, st2.Engine.Supersteps)
	}

	// The stored result is also still addressable on the legacy key-on-runs
	// alias, byte-for-byte the same as the results resource.
	key := tasks1[0].Key
	resp, err := http.Get(ts.URL + "/runs/" + key)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /runs/%s: status %d", key, resp.StatusCode)
	}
	if !bytes.Equal(raw, raw1[0]) {
		t.Fatal("key fetch differs from results-resource bytes")
	}
	res, err := result.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Experiment != tasks1[0].Experiment {
		t.Fatalf("stored result names %q", res.Experiment)
	}
}

func TestUnknownExperimentSuggestions(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := postRuns(t, ts, `{"experiments":["table1/brodcast"]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", code)
	}
	var e ErrorEnvelope
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Error.Code != CodeUnknownExperiment {
		t.Fatalf("error code %q, want %q", e.Error.Code, CodeUnknownExperiment)
	}
	ok := false
	for _, sug := range e.Error.Suggestions {
		if sug == "table1/broadcast" {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("suggestions %v missing table1/broadcast", e.Error.Suggestions)
	}
}

func TestGetRunNotFound(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code := getJSON(t, ts, "/runs/job-999999", nil); code != http.StatusNotFound {
		t.Fatalf("job fetch: status %d, want 404", code)
	}
	missingKey := strings.Repeat("ab", 32)
	if code := getJSON(t, ts, "/runs/"+missingKey, nil); code != http.StatusNotFound {
		t.Fatalf("key fetch: status %d, want 404", code)
	}
}

// A runner that fails deterministically for the first attempts exercises the
// bounded-retry path.
func TestExecutorRetries(t *testing.T) {
	var calls atomic.Int32
	flaky := func(id string, cfg harness.Config) (*result.Result, error) {
		if calls.Add(1) < 3 {
			return nil, errors.New("transient failure")
		}
		return DefaultRunner(id, cfg)
	}
	s := newTestServer(t, Options{Runner: flaky, Retries: 2})
	job, err := s.Submit(RunRequest{Experiments: []string{"table1/broadcast"}, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if state := job.Wait(context.Background()); state != StatusDone {
		t.Fatalf("job state %q, want done", state)
	}
	v := job.View()
	if v.Tasks[0].Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", v.Tasks[0].Attempts)
	}
	if s.Stats().TaskRetries != 2 {
		t.Fatalf("retry counter = %d, want 2", s.Stats().TaskRetries)
	}
}

func TestExecutorGivesUpAfterBoundedRetries(t *testing.T) {
	always := func(id string, cfg harness.Config) (*result.Result, error) {
		return nil, errors.New("permanent failure")
	}
	s := newTestServer(t, Options{Runner: always, Retries: 1})
	job, _ := s.Submit(RunRequest{Experiments: []string{"table1/broadcast"}, Quick: true})
	if state := job.Wait(context.Background()); state != StatusFailed {
		t.Fatalf("job state %q, want failed", state)
	}
	v := job.View()
	if v.Tasks[0].Attempts != 2 || v.Tasks[0].Error == "" {
		t.Fatalf("task = %+v, want 2 attempts and an error", v.Tasks[0])
	}
}

func TestExecutorRecoversPanics(t *testing.T) {
	boom := func(id string, cfg harness.Config) (*result.Result, error) {
		panic("kaboom")
	}
	s := newTestServer(t, Options{Runner: boom, Retries: 1})
	job, _ := s.Submit(RunRequest{Experiments: []string{"table1/broadcast"}, Quick: true})
	if state := job.Wait(context.Background()); state != StatusFailed {
		t.Fatalf("job state %q, want failed", state)
	}
	if !strings.Contains(job.View().Tasks[0].Error, "kaboom") {
		t.Fatalf("panic not surfaced: %+v", job.View().Tasks[0])
	}
	if s.Stats().TaskPanics != 2 {
		t.Fatalf("panic counter = %d, want 2", s.Stats().TaskPanics)
	}
}

// A processor program that panics inside a superstep must fail its task
// with the panic text, never crash the process, and leave the server able
// to run the next job.
func TestExecutorRecoversSuperstepPanics(t *testing.T) {
	boom := func(id string, cfg harness.Config) (*result.Result, error) {
		if id != "table1/broadcast" {
			return DefaultRunner(id, cfg)
		}
		m := bsp.New(bsp.Config{P: 8, Cost: model.BSPg(1, 1), Seed: 1})
		m.Superstep(func(c *bsp.Ctx) {
			if c.ID() == 5 {
				panic("proc 5 exploded")
			}
		})
		return nil, errors.New("superstep returned despite a panicking processor")
	}
	s := newTestServer(t, Options{Runner: boom, Retries: -1, Workers: 1})
	job, err := s.Submit(RunRequest{Experiments: []string{"table1/broadcast"}, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if state := job.Wait(context.Background()); state != StatusFailed {
		t.Fatalf("job state %q, want failed", state)
	}
	if task := job.View().Tasks[0]; task.Status != StatusFailed || !strings.Contains(task.Error, "proc 5 exploded") {
		t.Fatalf("panic not surfaced: %+v", task)
	}
	next, err := s.Submit(RunRequest{Experiments: []string{"table1/parity"}, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if state := next.Wait(context.Background()); state != StatusDone {
		t.Fatalf("next job state %q, want done", state)
	}
}

// Cancellation must drain promptly: with many tasks queued behind a held
// first wave, cancelling mid-flight starts no further task — each worker
// finishes at most its in-flight task and the rest end cancelled.
func TestExecutorCancellationDrainsPromptly(t *testing.T) {
	const workers = 4
	release := make(chan struct{})
	var started atomic.Int32
	slow := func(id string, cfg harness.Config) (*result.Result, error) {
		started.Add(1)
		<-release
		return DefaultRunner(id, cfg)
	}
	s := newTestServer(t, Options{Runner: slow, Workers: workers})
	job, err := s.Submit(RunRequest{Experiments: []string{"all"}, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for started.Load() < workers {
		time.Sleep(time.Millisecond)
	}
	job.Cancel()
	close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if state := job.Wait(ctx); state != StatusCancelled {
		t.Fatalf("job state %q, want cancelled", state)
	}
	if n := started.Load(); n > workers {
		t.Fatalf("%d tasks started, want at most the %d in flight at cancellation", n, workers)
	}
	cancelled := 0
	for _, task := range job.View().Tasks {
		if task.Status == StatusCancelled {
			cancelled++
		}
	}
	if want := len(job.View().Tasks) - workers; cancelled < want {
		t.Fatalf("%d tasks cancelled, want at least %d", cancelled, want)
	}
}

func TestJobCancellation(t *testing.T) {
	release := make(chan struct{})
	var started atomic.Int32
	slow := func(id string, cfg harness.Config) (*result.Result, error) {
		started.Add(1)
		<-release
		return DefaultRunner(id, cfg)
	}
	s := newTestServer(t, Options{Runner: slow, Workers: 2})

	job, err := s.Submit(RunRequest{Experiments: []string{"all"}, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for started.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	job.Cancel()
	close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if state := job.Wait(ctx); state != StatusCancelled {
		t.Fatalf("job state %q, want cancelled", state)
	}
	v := job.View()
	cancelled := 0
	for _, task := range v.Tasks {
		if task.Status == StatusCancelled {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("no task recorded as cancelled")
	}
}

func TestJobTimeout(t *testing.T) {
	slow := func(id string, cfg harness.Config) (*result.Result, error) {
		time.Sleep(50 * time.Millisecond)
		return DefaultRunner(id, cfg)
	}
	s := newTestServer(t, Options{Runner: slow, Workers: 1})
	job, err := s.Submit(RunRequest{
		Experiments: []string{"table1/broadcast", "table1/parity", "sched/static"},
		Quick:       true,
		TimeoutMS:   60,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if state := job.Wait(ctx); state != StatusCancelled {
		t.Fatalf("job state %q, want cancelled (timeout)", state)
	}
	sawTimeout := false
	for _, task := range job.View().Tasks {
		if task.Error == "job timeout" {
			sawTimeout = true
		}
	}
	if !sawTimeout {
		t.Fatalf("no task blamed the timeout: %+v", job.View().Tasks)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Options{MaxTasks: 4})
	if _, err := s.Submit(RunRequest{}); err == nil {
		t.Fatal("empty request accepted")
	}
	if _, err := s.Submit(RunRequest{Experiments: []string{"nope"}}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	_, err := s.Submit(RunRequest{
		Experiments: []string{"table1/broadcast"},
		Seeds:       []uint64{1, 2, 3, 4, 5},
		Quick:       true,
	})
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("task cap not enforced: %v", err)
	}
}

func TestSweepFansOutAllExperiments(t *testing.T) {
	s := newTestServer(t, Options{})
	job, err := s.Submit(RunRequest{Experiments: []string{"all"}, Quick: true, Seeds: []uint64{1}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if state := job.Wait(ctx); state != StatusDone {
		t.Fatalf("sweep state %q, want done", state)
	}
	v := job.View()
	if len(v.Tasks) != len(harness.All()) {
		t.Fatalf("sweep ran %d tasks, registry has %d", len(v.Tasks), len(harness.All()))
	}
	for _, task := range v.Tasks {
		if task.Status != StatusDone {
			t.Fatalf("task %s: %s (%s)", task.Experiment, task.Status, task.Error)
		}
	}
}

func TestAsyncSubmitAndPoll(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := postRuns(t, ts, `{"experiments":["table1/broadcast"],"quick":true,"wait":false}`)
	if code != http.StatusAccepted {
		t.Fatalf("async POST: status %d: %s", code, body)
	}
	var v JobSummary
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var got JobSummary
		if code := getJSON(t, ts, "/runs/"+v.ID, &got); code != http.StatusOK {
			t.Fatalf("poll: status %d", code)
		}
		if got.State == StatusDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", got.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	var list struct {
		Jobs []JobSummary `json:"jobs"`
	}
	getJSON(t, ts, "/runs", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != v.ID {
		t.Fatalf("job listing = %+v", list.Jobs)
	}
}

func TestDeleteCancelsJob(t *testing.T) {
	release := make(chan struct{}, 1)
	slow := func(id string, cfg harness.Config) (*result.Result, error) {
		<-release
		return DefaultRunner(id, cfg)
	}
	s := newTestServer(t, Options{Runner: slow, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := postRuns(t, ts, `{"experiments":["table1/broadcast"],"quick":true,"wait":false}`)
	if code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	var v JobSummary
	json.Unmarshal(body, &v)

	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/runs/%s", ts.URL, v.ID), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	release <- struct{}{}

	job, _ := s.Job(v.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if state := job.Wait(ctx); state != StatusCancelled && state != StatusDone {
		t.Fatalf("state after DELETE = %q", state)
	}
}
