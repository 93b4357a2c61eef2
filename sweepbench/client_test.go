package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"parbw/internal/service"
)

func TestReadSSEFrames(t *testing.T) {
	in := ": hb\n\n" +
		"id: 1\nevent: admitted\ndata: {\"id\":1}\n\n" +
		"id:2\nevent:started\ndata: line one\ndata: line two\nretry: 5\n\n" +
		"\n\n" + // blank lines without fields dispatch nothing
		"id: 3\nevent: cached\ndata: {\"id\":3}\n" // cut off by EOF: dropped
	var got []frame
	if err := readSSE(strings.NewReader(in), func(f frame) error {
		got = append(got, f)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []frame{
		{ID: "1", Event: "admitted", Data: `{"id":1}`},
		{ID: "2", Event: "started", Data: "line one\nline two"},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("frames %q, want %q", got, want)
	}
}

func TestReadSSEStopsOnCallbackError(t *testing.T) {
	in := "id: 1\ndata: a\n\nid: 2\ndata: b\n\n"
	n := 0
	err := readSSE(strings.NewReader(in), func(frame) error {
		n++
		return fmt.Errorf("stop")
	})
	if err == nil || n != 1 {
		t.Fatalf("err %v after %d frames, want the callback's error after 1", err, n)
	}
}

func TestTerminalDetection(t *testing.T) {
	for _, tc := range []struct {
		ev         service.Event
		task, jobs bool
	}{
		{service.Event{Type: service.EventCached}, true, false},
		{service.Event{Type: service.EventCompleted}, true, false},
		{service.Event{Type: service.EventFailed}, true, false},
		{service.Event{Type: service.EventCancelled}, true, false},
		{service.Event{Type: service.EventStarted}, false, false},
		{service.Event{Type: service.EventForwarded}, false, false},
		{service.Event{Type: service.EventJob, State: service.StatusRunning}, false, false},
		{service.Event{Type: service.EventJob, State: service.StatusDone}, false, true},
		{service.Event{Type: service.EventJob, State: service.StatusFailed}, false, true},
		{service.Event{Type: service.EventJob, State: service.StatusCancelled}, false, true},
	} {
		if got := service.TerminalEvent(tc.ev.Type); got != tc.task {
			t.Errorf("%s/%s: task terminal %v, want %v", tc.ev.Type, tc.ev.State, got, tc.task)
		}
		if got := jobTerminal(tc.ev); got != tc.jobs {
			t.Errorf("%s/%s: job terminal %v, want %v", tc.ev.Type, tc.ev.State, got, tc.jobs)
		}
	}
}

// fakeService answers POST /v1/runs with a one-task job summary and serves
// body as that job's event stream.
func fakeService(t *testing.T, body string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"job-000001","state":"queued","task_count":1}`)
	})
	mux.HandleFunc("GET /v1/runs/job-000001/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, body)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func sse(id int, typ, data string) string {
	return fmt.Sprintf("id: %d\nevent: %s\ndata: %s\n\n", id, typ, data)
}

func TestClientSweepFollowsStreamToJobTerminal(t *testing.T) {
	body := sse(1, "job", `{"id":1,"type":"job","task":-1,"state":"queued"}`) +
		sse(2, "admitted", `{"id":2,"type":"admitted","task":0}`) +
		": hb\n\n" +
		sse(3, "started", `{"id":3,"type":"started","task":0}`) +
		sse(4, "completed", `{"id":4,"type":"completed","task":0}`) +
		sse(5, "job", `{"id":5,"type":"job","task":-1,"state":"done","counts":{"done":1}}`)
	ts := fakeService(t, body)
	cl := newClient(1)
	defer cl.close()
	r, err := cl.sweep(context.Background(), ts.URL, service.RunRequest{Experiments: []string{"x"}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Job != "job-000001" || r.Cells != 1 || r.State != service.StatusDone || r.Terminal != 1 || r.Good != 1 || r.Frames != 5 {
		t.Fatalf("record %+v", r)
	}
	if len(r.Events) != 5 || r.Latency() <= 0 || r.Admitted.Before(r.Sent) || r.Done.Before(r.Admitted) {
		t.Fatalf("events %d, times sent %v admitted %v done %v", len(r.Events), r.Sent, r.Admitted, r.Done)
	}
}

func TestClientSweepCountsFailedCells(t *testing.T) {
	body := sse(1, "failed", `{"id":1,"type":"failed","task":0,"error":"boom"}`) +
		sse(2, "job", `{"id":2,"type":"job","task":-1,"state":"failed"}`)
	cl := newClient(1)
	defer cl.close()
	r, err := cl.sweep(context.Background(), fakeService(t, body).URL, service.RunRequest{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.State != service.StatusFailed || r.Terminal != 1 || r.Good != 0 || r.Events != nil {
		t.Fatalf("record %+v", r)
	}
}

func TestClientSweepRejectsStreamWithoutJobTerminal(t *testing.T) {
	body := sse(1, "completed", `{"id":1,"type":"completed","task":0}`)
	cl := newClient(1)
	defer cl.close()
	if _, err := cl.sweep(context.Background(), fakeService(t, body).URL, service.RunRequest{}, false); err == nil {
		t.Fatal("a stream that ends before its job-terminal event must be an error")
	}
}

func TestClientSweepReportsRefusal(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"code":"unavailable"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	cl := newClient(1)
	defer cl.close()
	_, err := cl.sweep(context.Background(), ts.URL, service.RunRequest{}, false)
	refused, ok := err.(*refusedError)
	if !ok || refused.Status != http.StatusServiceUnavailable {
		t.Fatalf("err %v, want a refusedError with status 503", err)
	}
}
