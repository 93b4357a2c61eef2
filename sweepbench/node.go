package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parbw/internal/cluster"
	"parbw/internal/harness"
	"parbw/internal/result"
	"parbw/internal/runstore"
	"parbw/internal/service"
)

// node is one in-process `bandsim serve`: a service.Server over its own run
// store, behind a loopback HTTP listener.
type node struct {
	name   string
	srv    *service.Server
	store  *runstore.Store
	ts     *httptest.Server
	client *cluster.Client // nil on a single node
}

// deployment is the set of nodes one sweep talks to; requests go to
// nodes[0].
type deployment struct {
	nodes []*node
	dir   string
}

func (d *deployment) base() string { return d.nodes[0].ts.URL }

// close stops every listener and server and deletes the stores.
func (d *deployment) close() {
	for _, n := range d.nodes {
		n.ts.Close()
		n.srv.Close()
	}
	os.RemoveAll(d.dir)
}

// swapHandler lets a cluster's listeners come up before the servers behind
// them exist: every node needs every peer's URL at construction.
type swapHandler struct {
	h atomic.Pointer[http.Handler]
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h := s.h.Load()
	if h == nil {
		http.Error(w, "node not up yet", http.StatusServiceUnavailable)
		return
	}
	(*h).ServeHTTP(w, r)
}

var dirSeq atomic.Uint64

// boot starts n nodes with empty stores under root (n == 1: single node;
// n > 1: a cluster sharing one membership list, default options as
// `bandsim serve -cluster-*` uses them). wrap, when non-nil, decorates each
// node's runner.
func boot(root string, n int, wrap func(node string, r service.Runner) service.Runner) (*deployment, error) {
	d := &deployment{dir: filepath.Join(root, fmt.Sprintf("stores-%d-%d", os.Getpid(), dirSeq.Add(1)))}
	handlers := make([]*swapHandler, n)
	urls := map[string]string{}
	for i := range handlers {
		handlers[i] = &swapHandler{}
		ts := httptest.NewServer(handlers[i])
		name := fmt.Sprintf("node-%d", i)
		urls[name] = ts.URL
		d.nodes = append(d.nodes, &node{name: name, ts: ts})
	}
	for i, nd := range d.nodes {
		st, err := runstore.Open(filepath.Join(d.dir, nd.name), 0)
		if err != nil {
			d.closePartial(i)
			return nil, err
		}
		opts := service.Options{Store: st, Runner: service.DefaultRunner}
		if wrap != nil {
			opts.Runner = wrap(nd.name, opts.Runner)
		}
		if n > 1 {
			cl, err := cluster.New(cluster.Options{Self: nd.name, Peers: urls})
			if err != nil {
				d.closePartial(i)
				return nil, err
			}
			opts.Cluster, nd.client = cl, cl
		}
		srv, err := service.New(opts)
		if err != nil {
			d.closePartial(i)
			return nil, err
		}
		nd.srv, nd.store = srv, st
		h := srv.Handler()
		handlers[i].h.Store(&h)
	}
	return d, nil
}

// closePartial unwinds a boot that failed at node i.
func (d *deployment) closePartial(i int) {
	for j, n := range d.nodes {
		n.ts.Close()
		if j < i {
			n.srv.Close()
		}
	}
	os.RemoveAll(d.dir)
}

// cellID names a cell by what it computes, the same way on the runner side
// (harness.Config) and the stream side (admitted events).
func cellID(experiment string, seed uint64, params map[string]string) string {
	names := make([]string, 0, len(params))
	for k := range params {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%d", experiment, seed)
	for _, k := range names {
		b.WriteString("|" + k + "=" + params[k])
	}
	return b.String()
}

func paramMap(ps []result.Param) map[string]string {
	m := make(map[string]string, len(ps))
	for _, p := range ps {
		m[p.Name] = p.Value
	}
	return m
}

// runSpan is one runner call seen by the runner wrapper.
type runSpan struct {
	Node       string
	Cell       string
	Family     string
	Start, End time.Time
}

// runRecorder is a service.Runner wrapper that times every runner call —
// the harness layer measured from outside. It records only while on.
type runRecorder struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []runSpan
}

func (r *runRecorder) wrap(node string, inner service.Runner) service.Runner {
	return func(id string, cfg harness.Config) (*result.Result, error) {
		if !r.on.Load() {
			return inner(id, cfg)
		}
		start := time.Now()
		res, err := inner(id, cfg)
		end := time.Now()
		family, _, _ := strings.Cut(id, "/")
		r.mu.Lock()
		r.spans = append(r.spans, runSpan{Node: node, Cell: cellID(id, cfg.Seed, cfg.Params), Family: family, Start: start, End: end})
		r.mu.Unlock()
		return res, err
	}
}

// take returns and clears the recorded spans.
func (r *runRecorder) take() []runSpan {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}
