package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"parbw/internal/service"
)

// frame is one parsed text/event-stream frame.
type frame struct {
	ID    string
	Event string
	Data  string
}

// readSSE parses r as text/event-stream and calls fn once per frame. Comment
// lines (": hb" heartbeats) are skipped, multi-line data fields are joined
// with "\n", and a frame is dispatched at its terminating blank line; a
// trailing frame cut off by EOF is dropped, as the SSE spec requires. A
// non-nil error from fn stops the read and is returned.
func readSSE(r io.Reader, fn func(frame) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	var f frame
	var data []string
	dirty := false
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			if dirty {
				f.Data = strings.Join(data, "\n")
				if err := fn(f); err != nil {
					return err
				}
			}
			f, data, dirty = frame{}, data[:0], false
			continue
		}
		if strings.HasPrefix(line, ":") {
			continue
		}
		field, value, _ := strings.Cut(line, ":")
		value = strings.TrimPrefix(value, " ")
		switch field {
		case "id":
			f.ID = value
		case "event":
			f.Event = value
		case "data":
			data = append(data, value)
		default:
			continue
		}
		dirty = true
	}
	return sc.Err()
}

// jobTerminal reports whether ev is the job-level event that closes a
// job's stream: type "job" carrying a terminal state.
func jobTerminal(ev service.Event) bool {
	if ev.Type != service.EventJob {
		return false
	}
	switch ev.State {
	case service.StatusDone, service.StatusFailed, service.StatusCancelled:
		return true
	}
	return false
}

// timedEvent is one stream event with the time the client received it.
type timedEvent struct {
	service.Event
	At time.Time
}

// request is the client-side record of one served sweep: POST, then the
// job's SSE stream until its job-terminal event.
type request struct {
	Job      string
	Cells    int       // task_count from the POST answer
	Sent     time.Time // POST written
	Admitted time.Time // POST answered
	Done     time.Time // job-terminal event received
	State    string    // the job's terminal state
	Terminal int       // per-task terminal events seen
	Good     int       // of which cached or completed
	Frames   int       // SSE frames received
	Events   []timedEvent
}

// Latency is POST to job-terminal event.
func (r *request) Latency() time.Duration { return r.Done.Sub(r.Sent) }

// refusedError is a POST answered with a non-2xx status.
type refusedError struct {
	Status int
	Body   string
}

func (e *refusedError) Error() string {
	return fmt.Sprintf("POST /v1/runs refused: %d %s", e.Status, strings.TrimSpace(e.Body))
}

// client drives one service over HTTP the way `bandsim watch` users do.
type client struct {
	http *http.Client
}

func newClient(conns int) *client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 2 * conns
	tr.MaxIdleConnsPerHost = 2 * conns
	return &client{http: &http.Client{Transport: tr}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// sweep POSTs req with wait=false, then follows the job's event stream to
// its job-terminal event. With keep set it retains every event with its
// receipt time for tracing.
func (c *client) sweep(ctx context.Context, base string, req service.RunRequest, keep bool) (*request, error) {
	wait := false
	req.Wait = &wait
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	rec := &request{Sent: time.Now()}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("POST /v1/runs: %w", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.Admitted = time.Now()
	if err != nil {
		return nil, fmt.Errorf("POST /v1/runs: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, &refusedError{Status: resp.StatusCode, Body: string(raw)}
	}
	var sum service.JobSummary
	if err := json.Unmarshal(raw, &sum); err != nil {
		return nil, fmt.Errorf("POST /v1/runs: decode summary: %w", err)
	}
	rec.Job, rec.Cells = sum.ID, sum.TaskCount
	if err := c.stream(ctx, base, rec, keep); err != nil {
		return rec, err
	}
	return rec, nil
}

// stream follows GET /v1/runs/{id}/events to its end. The server closes
// the stream right after the job-terminal event; reading on to EOF lets the
// connection go back to the idle pool.
func (c *client) stream(ctx context.Context, base string, rec *request, keep bool) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/runs/"+rec.Job+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		return fmt.Errorf("GET events %s: %w", rec.Job, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET events %s: %d %s", rec.Job, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	err = readSSE(resp.Body, func(f frame) error {
		at := time.Now()
		rec.Frames++
		var ev service.Event
		if err := json.Unmarshal([]byte(f.Data), &ev); err != nil {
			return fmt.Errorf("event %s of %s: %w", f.ID, rec.Job, err)
		}
		if keep {
			rec.Events = append(rec.Events, timedEvent{Event: ev, At: at})
		}
		switch {
		case service.TerminalEvent(ev.Type):
			rec.Terminal++
			if ev.Type == service.EventCached || ev.Type == service.EventCompleted {
				rec.Good++
			}
		case jobTerminal(ev):
			rec.Done, rec.State = at, ev.State
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("stream of %s: %w", rec.Job, err)
	}
	if rec.State == "" {
		return fmt.Errorf("stream of %s ended before its job-terminal event", rec.Job)
	}
	return nil
}
