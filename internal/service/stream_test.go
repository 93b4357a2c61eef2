package service

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"parbw/internal/engine"
	"parbw/internal/fault"
	"parbw/internal/harness"
	"parbw/internal/result"
)

// The SSE contract suite: the live event stream of GET /v1/runs/{id}/events
// must deliver every terminal per-task event exactly once (resume after a
// disconnect included), must mark loss explicitly with gap events instead of
// silently skipping, and — the core invariant — must never let a slow or
// stalled subscriber slow the executor.

// sseFrame is one parsed frame of a test stream.
type sseFrame struct {
	id    uint64
	event string
	data  string
}

// readFrames parses frames off r, calling fn per frame until the stream ends
// or fn returns false. Comments (heartbeats) are skipped.
func readFrames(r io.Reader, fn func(sseFrame) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var f sseFrame
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if f.event != "" || f.data != "" {
				if !fn(f) {
					return nil
				}
			}
			f = sseFrame{}
		case strings.HasPrefix(line, ":"):
		case strings.HasPrefix(line, "id:"):
			f.id, _ = strconv.ParseUint(strings.TrimSpace(line[3:]), 10, 64)
		case strings.HasPrefix(line, "event:"):
			f.event = strings.TrimSpace(line[6:])
		case strings.HasPrefix(line, "data:"):
			f.data = strings.TrimSpace(line[5:])
		}
	}
	return sc.Err()
}

// openStream issues the SSE request, optionally resuming from lastID.
func openStream(t *testing.T, ctx context.Context, base, jobID string, lastID uint64) *http.Response {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/runs/"+jobID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("stream status %d: %s", resp.StatusCode, body)
	}
	return resp
}

// collectAll drains a finished job's stream (subscribe-on-closed-bus replay).
func collectAll(t *testing.T, base, jobID string, lastID uint64) []sseFrame {
	t.Helper()
	resp := openStream(t, context.Background(), base, jobID, lastID)
	defer resp.Body.Close()
	var frames []sseFrame
	if err := readFrames(resp.Body, func(f sseFrame) bool {
		frames = append(frames, f)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return frames
}

// stubRunner returns a cheap deterministic result without driving machines —
// the 10k-cell tests need task volume, not simulation fidelity.
func stubRunner(id string, cfg harness.Config) (*result.Result, error) {
	return result.New(id, "stub", "stub", result.Params{}), nil
}

func TestSSEStreamLifecycle(t *testing.T) {
	s := newTestServer(t, Options{Heartbeat: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v := submitJob(t, ts, "table1/broadcast")
	frames := collectAll(t, ts.URL, v.ID, 0)
	if len(frames) < 4 {
		t.Fatalf("stream has %d frames, want at least job/admitted/started/terminal: %+v", len(frames), frames)
	}
	// Monotone ids and self-contained data payloads.
	var last uint64
	types := make([]string, len(frames))
	for i, f := range frames {
		if f.id <= last {
			t.Fatalf("frame %d id %d not monotone after %d", i, f.id, last)
		}
		last = f.id
		var ev Event
		if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
			t.Fatalf("frame %d data is not event JSON: %v: %s", i, err, f.data)
		}
		if ev.ID != f.id || ev.Type != f.event {
			t.Fatalf("frame %d: SSE fields (id %d, %s) disagree with payload (%d, %s)", i, f.id, f.event, ev.ID, ev.Type)
		}
		types[i] = f.event
	}
	want := []string{EventJob, EventAdmitted, EventJob, EventStarted, EventCompleted, EventJob}
	if got := strings.Join(types, ","); got != strings.Join(want, ",") {
		t.Fatalf("lifecycle = %s, want %s", got, strings.Join(want, ","))
	}
	// The final job event carries the tally.
	var final Event
	json.Unmarshal([]byte(frames[len(frames)-1].data), &final)
	if final.State != StatusDone || final.Counts[StatusDone] != 1 {
		t.Fatalf("final job event = %+v, want done with counts", final)
	}
}

// A client that reconnects with Last-Event-ID receives exactly the missed
// suffix: same ids, same bytes.
func TestSSEResumeReplaysExactSuffix(t *testing.T) {
	s := newTestServer(t, Options{Heartbeat: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v := submitJob(t, ts, "table1/broadcast")
	full := collectAll(t, ts.URL, v.ID, 0)
	if len(full) < 4 {
		t.Fatalf("short stream: %+v", full)
	}
	cut := len(full) / 2
	resumed := collectAll(t, ts.URL, v.ID, full[cut-1].id)
	want := full[cut:]
	if len(resumed) != len(want) {
		t.Fatalf("resume returned %d frames, want %d", len(resumed), len(want))
	}
	for i := range want {
		if resumed[i] != want[i] {
			t.Fatalf("resumed frame %d = %+v, want %+v", i, resumed[i], want[i])
		}
	}
	// Resuming past the newest event yields an immediately-ending empty
	// stream, not an error.
	if tail := collectAll(t, ts.URL, v.ID, full[len(full)-1].id); len(tail) != 0 {
		t.Fatalf("resume at tip returned %d frames, want 0", len(tail))
	}
	// A malformed Last-Event-ID is a 400 with the envelope.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/runs/"+v.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", "not-a-number")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad Last-Event-ID status %d, want 400", resp.StatusCode)
	}
}

// The acceptance sweep: 10k cells, one live subscriber that disconnects
// mid-sweep and resumes — every cell's terminal event arrives exactly once.
func TestSSETenThousandCellSweepExactlyOnce(t *testing.T) {
	const cells = 10000
	s := newTestServer(t, Options{
		Runner:           stubRunner,
		MaxTasks:         cells,
		ReplayEvents:     65536,
		SubscriberBuffer: 65536,
		StepSample:       -1,
		Heartbeat:        -1,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	seeds := make([]uint64, cells)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	job, err := s.Submit(RunRequest{Experiments: []string{"table1/broadcast"}, Seeds: seeds, Quick: true})
	if err != nil {
		t.Fatal(err)
	}

	terminal := make(map[int]int) // task index -> terminal event count
	record := func(f sseFrame) {
		if !TerminalEvent(f.event) {
			return
		}
		var ev Event
		if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
			t.Errorf("bad event payload: %v", err)
			return
		}
		terminal[ev.Task]++
	}

	// First connection: read roughly half the expected frames, then drop.
	ctx, cancel := context.WithCancel(context.Background())
	resp := openStream(t, ctx, ts.URL, job.View().ID, 0)
	var lastID uint64
	n := 0
	readFrames(resp.Body, func(f sseFrame) bool {
		record(f)
		lastID = f.id
		n++
		return n < 3*cells/2
	})
	cancel()
	resp.Body.Close()
	if lastID == 0 {
		t.Fatal("first connection saw no frames")
	}

	// Resume: the replay ring covers the missed stretch; read to the end.
	for _, f := range collectAll(t, ts.URL, job.View().ID, lastID) {
		if f.event == EventGap {
			t.Fatalf("gap event on resume: the replay ring should cover the whole sweep (%s)", f.data)
		}
		record(f)
	}

	wctx, wcancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer wcancel()
	if state := job.Wait(wctx); state != StatusDone {
		t.Fatalf("sweep state %q, want done", state)
	}
	if len(terminal) != cells {
		t.Fatalf("terminal events cover %d cells, want %d", len(terminal), cells)
	}
	for idx, count := range terminal {
		if count != 1 {
			t.Fatalf("task %d got %d terminal events, want exactly 1", idx, count)
		}
	}
}

// The never-blocks invariant over HTTP: a subscriber whose writes are
// chaos-slowed cannot slow the executor. The job must finish at executor
// speed; the stream marks its loss with a gap event.
func TestSSESlowClientNeverBlocksExecutor(t *testing.T) {
	const cells = 200
	plan := fault.NewPlan(chaosSeed, fault.Rule{Point: PointSSEWrite, Kind: fault.Slow, Delay: 25 * time.Millisecond})
	ready := make(chan struct{})
	var once sync.Once
	gated := func(id string, cfg harness.Config) (*result.Result, error) {
		once.Do(func() { <-ready }) // hold the sweep until the stream is attached
		time.Sleep(time.Millisecond)
		return stubRunner(id, cfg)
	}
	s := newTestServer(t, Options{
		Runner:           gated,
		Workers:          1,
		MaxTasks:         cells,
		SubscriberBuffer: 8,
		StepSample:       -1,
		Heartbeat:        -1,
		Fault:            plan,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	seeds := make([]uint64, cells)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	job, err := s.Submit(RunRequest{Experiments: []string{"table1/broadcast"}, Seeds: seeds, Quick: true})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var frames []sseFrame
	resp := openStream(t, context.Background(), ts.URL, job.View().ID, 0)
	defer resp.Body.Close()
	streamDone := make(chan error, 1)
	go func() {
		first := true
		streamDone <- readFrames(resp.Body, func(f sseFrame) bool {
			mu.Lock()
			frames = append(frames, f)
			mu.Unlock()
			if first {
				first = false
				close(ready)
			}
			return true
		})
	}()

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if state := job.Wait(ctx); state != StatusDone {
		t.Fatalf("sweep state %q, want done", state)
	}
	// cells × 1ms of runner work on one worker: anywhere near the consumer's
	// ~40 frames/s means the stalled subscriber backpressured the executor.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("sweep took %v with a stalled subscriber attached; executor was slowed", elapsed)
	}

	select {
	case err := <-streamDone:
		if err != nil {
			t.Fatalf("stream read: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stream did not end after the job finished")
	}
	mu.Lock()
	defer mu.Unlock()
	sawGap := false
	for _, f := range frames {
		if f.event == EventGap {
			sawGap = true
			var ev Event
			if err := json.Unmarshal([]byte(f.data), &ev); err != nil || ev.From == 0 || ev.To < ev.From {
				t.Fatalf("gap event malformed: %s", f.data)
			}
		}
	}
	if !sawGap {
		t.Fatal("slow subscriber lost events without a gap marker")
	}
	if st := s.Stats(); st.StreamEventsDropped == 0 {
		t.Fatalf("stats = %+v, want dropped stream events accounted", st)
	}
	if len(frames) >= 2+3*cells {
		t.Fatalf("slow subscriber received all %d frames; drop path untested", len(frames))
	}
}

// Heartbeats keep an idle stream alive as comments — no ids, no events, so
// resume arithmetic is untouched by them.
func TestSSEHeartbeatsAreIdlessComments(t *testing.T) {
	release := make(chan struct{})
	gated := func(id string, cfg harness.Config) (*result.Result, error) {
		<-release
		return stubRunner(id, cfg)
	}
	s := newTestServer(t, Options{Runner: gated, Heartbeat: 20 * time.Millisecond, StepSample: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	job, err := s.Submit(RunRequest{Experiments: []string{"table1/broadcast"}, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	resp := openStream(t, context.Background(), ts.URL, job.View().ID, 0)
	defer resp.Body.Close()

	// Read raw lines long enough to cross several heartbeat intervals.
	raw := make([]byte, 0, 4096)
	buf := make([]byte, 512)
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) && len(raw) < 2048 {
		n, err := resp.Body.Read(buf)
		raw = append(raw, buf[:n]...)
		if err != nil {
			break
		}
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	job.Wait(ctx)

	if !strings.Contains(string(raw), ": hb\n\n") {
		t.Fatalf("no heartbeat comment in %q", raw)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "id:") {
			if _, err := strconv.ParseUint(strings.TrimSpace(line[3:]), 10, 64); err != nil {
				t.Fatalf("non-numeric id line %q", line)
			}
		}
	}
}

// Exactly-once under cancellation: every admitted cell gets one terminal
// event even when the job is cancelled mid-sweep — cancelled counts.
func TestSSECancelledSweepStillTerminatesEveryCell(t *testing.T) {
	const cells = 50
	started := make(chan struct{}, cells)
	block := make(chan struct{})
	gated := func(id string, cfg harness.Config) (*result.Result, error) {
		started <- struct{}{}
		<-block
		return stubRunner(id, cfg)
	}
	s := newTestServer(t, Options{Runner: gated, Workers: 1, MaxTasks: cells, StepSample: -1, Heartbeat: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	seeds := make([]uint64, cells)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	job, err := s.Submit(RunRequest{Experiments: []string{"table1/broadcast"}, Seeds: seeds, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	<-started // first task is in the runner; the rest are pending
	job.Cancel()
	close(block)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if state := job.Wait(ctx); state != StatusCancelled {
		t.Fatalf("state %q, want cancelled", state)
	}

	terminal := map[int]int{}
	for _, f := range collectAll(t, ts.URL, job.View().ID, 0) {
		if TerminalEvent(f.event) {
			var ev Event
			json.Unmarshal([]byte(f.data), &ev)
			terminal[ev.Task]++
		}
	}
	if len(terminal) != cells {
		t.Fatalf("terminal events cover %d cells, want %d", len(terminal), cells)
	}
	for idx, n := range terminal {
		if n != 1 {
			t.Fatalf("task %d got %d terminal events, want 1", idx, n)
		}
	}
}

// Single-node step attribution: with a live subscriber and StepSample 1,
// every task of a job streams exactly its own run's supersteps, in commit
// order, as step events under its own task index — tasks run concurrently,
// and each run's observer reaches every machine its experiment builds. The
// test's runner holds each step until the subscriber has taken it, so the
// lossy step contract (coalescing, drops) never engages and the sequences
// are exact.
func TestStepEventsPerTaskSingleNode(t *testing.T) {
	type cell struct {
		exp  string
		seed uint64
	}
	var mu sync.Mutex
	caught := sync.NewCond(&mu)
	seen := map[cell]int{} // step events the subscriber has taken, per cell
	gate := make(chan struct{})
	runner := func(id string, cfg harness.Config) (*result.Result, error) {
		if id == "table1/onetoall" {
			<-gate // the blocker job holds the dispatcher
		}
		if inner := cfg.Observer; inner != nil {
			c, n := cell{id, cfg.Seed}, 0
			cfg.Observer = engine.ObserverFunc(func(st engine.StepStats) {
				inner.OnStep(st)
				n++
				mu.Lock()
				for seen[c] < n {
					caught.Wait()
				}
				mu.Unlock()
			})
		}
		return DefaultRunner(id, cfg)
	}
	s := newTestServer(t, Options{Runner: runner, Workers: 4, StepSample: 1, Heartbeat: -1})

	// Jobs run one at a time: while a blocker job holds the dispatcher, the
	// job under test stays queued until its subscriber is in place, so every
	// one of its tasks starts watched.
	blocker, err := s.Submit(RunRequest{Experiments: []string{"table1/onetoall"}, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	job, err := s.Submit(RunRequest{
		Experiments: []string{"table1/broadcast", "sched/static", "sep/leader"},
		Seeds:       []uint64{3, 4},
		Quick:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	type step struct {
		machine string
		index   int
		cost    float64
	}
	started := map[int]Event{}
	got := map[int][]step{}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		job.WatchEvents(ctx, 0, func(ev Event) {
			switch ev.Type {
			case EventStarted:
				started[ev.Task] = ev
			case EventStep:
				got[ev.Task] = append(got[ev.Task], step{ev.Machine, ev.Superstep, ev.Cost})
				st := started[ev.Task]
				mu.Lock()
				seen[cell{st.Experiment, st.Seed}]++
				caught.Broadcast()
				mu.Unlock()
			}
		})
	}()
	for !job.Events().HasSubscribers() {
		if ctx.Err() != nil {
			t.Fatal("watcher never subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if state := waitState(t, blocker); state != StatusDone {
		t.Fatalf("blocker state %q, want done", state)
	}
	if state := waitState(t, job); state != StatusDone {
		t.Fatalf("state %q, want done", state)
	}
	<-watchDone

	if len(started) != 6 {
		t.Fatalf("saw %d started tasks, want 6", len(started))
	}
	for idx, ev := range started {
		e, _ := harness.ByID(ev.Experiment)
		var want []step
		e.Run(io.Discard, harness.Config{Seed: ev.Seed, Params: harness.QuickParams(),
			Observer: engine.ObserverFunc(func(st engine.StepStats) {
				want = append(want, step{st.Machine, st.Index, st.Cost})
			})})
		if len(want) == 0 {
			t.Fatalf("%s seed %d commits no supersteps; pick an experiment that does", ev.Experiment, ev.Seed)
		}
		if !reflect.DeepEqual(got[idx], want) {
			t.Errorf("task %d (%s seed %d): streamed %d steps, want its own run's %d",
				idx, ev.Experiment, ev.Seed, len(got[idx]), len(want))
		}
	}
	if st := s.Stats(); st.StreamEventsDropped != 0 || st.StreamEventsCoalesced != 0 {
		t.Fatalf("stream dropped %d and coalesced %d events, want 0 and 0",
			st.StreamEventsDropped, st.StreamEventsCoalesced)
	}
}
