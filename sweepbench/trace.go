package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"parbw/internal/cluster"
	"parbw/internal/service"
)

// span is one traced interval at a layer boundary, as the benchmark sees
// it from outside the program. Spans of one request share Job; Parent is
// the id of the enclosing span (0 for a request's root).
type span struct {
	ID         int     `json:"id"`
	Name       string  `json:"name"`
	Parent     int     `json:"parent"`
	ParentName string  `json:"parent_name,omitempty"`
	Job        string  `json:"job"`
	Task       int     `json:"task"` // -1 for request-level spans
	Node       string  `json:"node,omitempty"`
	StartMS    float64 `json:"start_ms"` // since the trace epoch
	EndMS      float64 `json:"end_ms"`
}

func (s span) dur() float64 { return s.EndMS - s.StartMS }

// maxKeptSpans bounds the spans a traced run holds for its trace file;
// aggregates cover every span regardless.
const maxKeptSpans = 20000

// selfStat accumulates one span name's self time.
type selfStat struct {
	totalMS float64
	n       int
}

// layers accumulates the per-layer view of a traced run. Requests are
// folded in as they finish, so a long traced run holds aggregates, not
// event logs.
type layers struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	next  int
	self  map[string]*selfStat

	admit, queue, hit, deliver, forward, cellRun []float64 // ms
	busy, busyFrac                               []float64 // per request that ran cells: s, share
	family                                       map[string]float64
	frames, cells                                int
	traced, untraced                             []float64 // request latency, s

	counts   []counts      // engine counts per traced cold request
	svc      service.Stats // summed over nodes and traced deployments
	peers    cluster.PeerStats
	hits     [2]uint64 // store hits, mem hits
	workers  int       // service workers summed over nodes
	probes   map[string]float64
	probeErr []string
}

func newLayers() *layers {
	return &layers{epoch: time.Now(), self: map[string]*selfStat{}, family: map[string]float64{}, probes: map[string]float64{}}
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }

// cellTrace is what one request's stream said about one cell.
type cellTrace struct {
	id                        string
	owner                     string
	started, forwarded, ended time.Time
	terminal                  string
}

// addRequest folds one traced request — its stream events plus the runner
// spans recorded while it ran — into the aggregates, and builds its spans:
//
//	client.sweep                       POST sent → job-terminal event
//	├─ client.post                     POST round trip (admission)
//	└─ client.stream                   POST answered → job-terminal event
//	   ├─ service.queue   per cell     POST answered → cell started
//	   ├─ service.hit     per cell     started → cached (store hit)
//	   ├─ harness.run     per cell     runner call on the origin node
//	   ├─ service.deliver per cell     runner return → terminal event received
//	   └─ cluster.forward per cell     forwarded → terminal event received
//	      └─ harness.run               runner call on the owning peer
func (l *layers) addRequest(r *request, runs []runSpan, origin string) {
	cells := make([]cellTrace, r.Cells)
	for _, ev := range r.Events {
		if ev.Task < 0 || ev.Task >= len(cells) {
			continue
		}
		c := &cells[ev.Task]
		switch {
		case ev.Type == service.EventAdmitted:
			c.id, c.owner = cellID(ev.Experiment, ev.Seed, paramMap(ev.Params)), ev.Node
		case ev.Type == service.EventStarted:
			if c.started.IsZero() {
				c.started = ev.At
			}
		case ev.Type == service.EventForwarded:
			c.forwarded = ev.At
		case service.TerminalEvent(ev.Type):
			c.ended, c.terminal = ev.At, ev.Type
		}
	}
	byCell := make(map[string]runSpan, len(runs))
	for _, rs := range runs {
		byCell[rs.Node+"\x00"+rs.Cell] = rs
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	// Sized for every span the request can produce (3 + at most 3 per
	// cell), so the pointers add returns stay valid.
	local := make([]span, 0, 3+3*len(cells))
	add := func(name string, parent *span, task int, node string, a, b time.Time) *span {
		if b.Before(a) {
			b = a
		}
		l.next++
		s := span{ID: l.next, Name: name, Job: r.Job, Task: task, Node: node, StartMS: msBetween(l.epoch, a), EndMS: msBetween(l.epoch, b)}
		if parent != nil {
			s.Parent, s.ParentName = parent.ID, parent.Name
		}
		local = append(local, s)
		return &local[len(local)-1]
	}
	root := add("client.sweep", nil, -1, origin, r.Sent, r.Done)
	add("client.post", root, -1, origin, r.Sent, r.Admitted)
	stream := add("client.stream", root, -1, origin, r.Admitted, r.Done)

	l.admit = append(l.admit, msBetween(r.Sent, r.Admitted))
	var first time.Time
	for i, c := range cells {
		if c.started.IsZero() {
			continue
		}
		if first.IsZero() || c.started.Before(first) {
			first = c.started
		}
		add("service.queue", stream, i, origin, r.Admitted, c.started)
		switch {
		case c.terminal == service.EventCached:
			add("service.hit", stream, i, origin, c.started, c.ended)
			l.hit = append(l.hit, msBetween(c.started, c.ended))
		case !c.forwarded.IsZero():
			fwd := add("cluster.forward", stream, i, c.owner, c.forwarded, c.ended)
			ms := fwd.dur()
			if rs, ok := byCell[c.owner+"\x00"+c.id]; ok {
				add("harness.run", fwd, i, c.owner, rs.Start, rs.End)
				ms -= msBetween(rs.Start, rs.End)
			}
			l.forward = append(l.forward, ms)
		case c.terminal == service.EventCompleted:
			if rs, ok := byCell[origin+"\x00"+c.id]; ok {
				add("harness.run", stream, i, origin, rs.Start, rs.End)
				add("service.deliver", stream, i, origin, rs.End, c.ended)
				l.deliver = append(l.deliver, msBetween(rs.End, c.ended))
			}
		}
	}
	if !first.IsZero() {
		l.queue = append(l.queue, msBetween(r.Admitted, first))
	}
	if len(runs) > 0 {
		busy := 0.0
		for _, rs := range runs {
			d := rs.End.Sub(rs.Start).Seconds()
			busy += d
			l.cellRun = append(l.cellRun, d*1000)
			l.family[rs.Family] += d
		}
		l.busy = append(l.busy, busy)
		if l.workers > 0 {
			l.busyFrac = append(l.busyFrac, busy/(r.Latency().Seconds()*float64(l.workers)))
		}
	}
	l.frames += r.Frames
	l.cells += r.Cells

	for name, st := range selfTimes(local) {
		agg := l.self[name]
		if agg == nil {
			agg = &selfStat{}
			l.self[name] = agg
		}
		agg.totalMS += st.totalMS
		agg.n += st.n
	}
	if room := maxKeptSpans - len(l.spans); room > 0 {
		l.spans = append(l.spans, local[:min(room, len(local))]...)
	}
}

// latency records one request's latency on the traced or untraced side of
// the tracing-overhead comparison.
func (l *layers) latency(traced bool, s float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if traced {
		l.traced = append(l.traced, s)
	} else {
		l.untraced = append(l.untraced, s)
	}
}

// addNodes folds one finished deployment's service and cluster counters in.
func (l *layers) addNodes(d *deployment) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, n := range d.nodes {
		st := n.srv.Stats()
		l.svc.StreamEventsDropped += st.StreamEventsDropped
		l.svc.StreamEventsCoalesced += st.StreamEventsCoalesced
		l.svc.TaskRetries += st.TaskRetries
		l.svc.TaskPanics += st.TaskPanics
		if n.client == nil {
			continue
		}
		for _, ps := range n.client.Snapshot().Peers {
			l.peers.Forwards += ps.Forwards
			l.peers.RemoteHits += ps.RemoteHits
			l.peers.Failures += ps.Failures
			l.peers.Degraded += ps.Degraded
			l.peers.EventsPosted += ps.EventsPosted
			l.peers.EventsDropped += ps.EventsDropped
		}
	}
}

// selfTimes computes, per span name, the summed self time of spans: each
// span's duration minus the part of it its children's intervals cover.
func selfTimes(spans []span) map[string]selfStat {
	kids := map[int][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.StartMS, s.EndMS})
		}
	}
	out := map[string]selfStat{}
	for _, s := range spans {
		st := out[s.Name]
		st.totalMS += s.dur() - covered(kids[s.ID], s.StartMS, s.EndMS)
		st.n++
		out[s.Name] = st
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]float64, lo, hi float64) float64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, curLo, curHi := 0.0, 0.0, 0.0
	open := false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeTrace writes the host stamp and the kept spans as JSON lines.
func writeTrace(path string, header any, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
