// Package async is an asynchronous counterpart to the bulk-synchronous
// BSP(m) machine — the direction of the paper's remark that "many of our
// results extend to more asynchronous models". Processors are sequential
// programs exchanging messages through FIFO mailboxes; there are no
// supersteps. Time is
// logical (Lamport-style clocks): local work advances a processor's clock,
// and the shared network advances a global token clock by 1/m per message,
// so the aggregate bandwidth limit is enforced by *backpressure* rather
// than by an explicit schedule — a sender's clock stalls until the network
// can take its message.
//
// The interesting consequence, measured by the `async/backpressure`
// experiment: on an asynchronous machine with flow control, oblivious
// injection already completes within max(n/m, x̄, ȳ) + L — the network's
// serialization point performs the "scheduling" that Theorem 6.2's
// randomized algorithm must perform explicitly in the bulk-synchronous
// setting, where a sender commits to injection times without feedback.
// This is precisely why the BSP(m) charges a penalty for oblivious
// overload and why its algorithms must stagger sends.
//
// Logical completion time is a pure function of the program and the
// configuration: Run executes one processor at a time, passing a baton in
// processor-id order, and a processor gives it up only when Recv finds its
// mailbox empty, so the network serialization point admits messages in the
// same order on every run and at every GOMAXPROCS. Totals (messages,
// token-clock advance) are exact, and completion obeys
// max(n/m, x̄+L, ȳ+L) <= T <= n/m + x̄ + ȳ + L for the workloads tested.
package async

import (
	"fmt"
	"runtime"

	"parbw/internal/model"
)

// Msg is an asynchronous message with its logical arrival time.
type Msg struct {
	Src, Dst int
	A        int64
	arrival  float64
}

// Arrival returns the message's logical arrival time at the receiver.
func (m Msg) Arrival() float64 { return m.arrival }

// Config describes an asynchronous machine.
type Config struct {
	P       int     // processors
	M       int     // aggregate bandwidth: the network takes m messages per time unit
	Latency float64 // delivery latency added to each message
}

// Machine is the asynchronous runtime. Construct with New, run with Run.
type Machine struct {
	cfg   Config
	boxes [][]Msg // per-processor FIFO mailboxes
	sent  int     // admissions so far; admission k departs no earlier than k/m

	// Run's scheduler state: the processors of the run in flight, and the
	// channel on which the baton holder hands control back.
	procs []*Proc
	yield chan any
}

// New constructs an asynchronous machine.
func New(cfg Config) *Machine {
	if cfg.P < 1 || cfg.M < 1 {
		panic("async: need P >= 1 and M >= 1")
	}
	if cfg.Latency < 0 {
		panic("async: negative latency")
	}
	return &Machine{cfg: cfg, boxes: make([][]Msg, cfg.P)}
}

// Proc is a processor's handle inside its goroutine.
type Proc struct {
	id    int
	m     *Machine
	clock float64

	wake    chan bool // the baton: true resumes the processor, false aborts it
	waiting bool      // blocked in Recv on an empty mailbox
	done    bool      // program returned (or panicked)
	aborted bool      // unwound by Run's abort
}

// ID returns the processor index.
func (p *Proc) ID() int { return p.id }

// Clock returns the processor's current logical time.
func (p *Proc) Clock() float64 { return p.clock }

// Work advances the processor's clock by units of local computation.
func (p *Proc) Work(units float64) {
	if units > 0 {
		p.clock += units
	}
}

// Send transmits a message under token-bucket backpressure: tokens
// accumulate at rate m from time 0, so the k-th admitted message cannot
// depart before k/m; a bursty sender may use capacity left idle earlier
// (the linear-penalty world f^ℓ, where the network absorbs bursts at
// sustained rate m). The sender's clock stalls to the departure time and
// then advances one unit (one flit per step, as in the BSP models).
func (p *Proc) Send(dst int, a int64) {
	if dst < 0 || dst >= p.m.cfg.P {
		panic(fmt.Sprintf("async: send to invalid dst %d", dst))
	}
	gap := 1.0 / float64(p.m.cfg.M)
	k := p.m.sent
	p.m.sent++
	depart := p.clock
	if budget := float64(k) * gap; budget > depart {
		depart = budget
	}
	p.clock = depart + 1
	p.m.boxes[dst] = append(p.m.boxes[dst], Msg{Src: p.id, Dst: dst, A: a, arrival: depart + p.m.cfg.Latency})
}

// Recv takes the next message from the processor's mailbox and advances the
// clock to its arrival plus one unit of receive handling. On an empty
// mailbox the processor hands the baton on and resumes once a message is
// there.
func (p *Proc) Recv() Msg {
	if len(p.m.boxes[p.id]) == 0 {
		p.waiting = true
		p.m.yield <- nil
		if !<-p.wake {
			p.aborted = true
			runtime.Goexit()
		}
		p.waiting = false
	}
	box := p.m.boxes[p.id]
	msg := box[0]
	p.m.boxes[p.id] = box[1:]
	if msg.arrival > p.clock {
		p.clock = msg.arrival
	}
	p.clock++
	return msg
}

// Run executes program(i) for every processor and returns the logical
// completion time (the maximum final clock) once all have finished.
//
// Each processor runs on its own goroutine, but only the one holding the
// baton executes. The baton starts at processor 0 and, whenever its holder
// returns or blocks in Recv on an empty mailbox, passes to the next
// processor in cyclic id order that can make progress: one that has not
// started, or one blocked in Recv whose mailbox has since filled. The
// schedule, and so every clock, depends only on the programs. If every
// unfinished processor is blocked on an empty mailbox, Run panics with a
// deadlock message; a panicking program re-panics on Run's caller. Either
// way the other processors' goroutines are unwound first.
func (m *Machine) Run(program func(p *Proc)) float64 {
	m.procs = make([]*Proc, m.cfg.P)
	m.yield = make(chan any)
	for i := range m.procs {
		pr := &Proc{id: i, m: m, wake: make(chan bool)}
		m.procs[i] = pr
		go pr.run(program)
	}
	live := len(m.procs)
	for cur := 0; live > 0; cur++ {
		next := m.runnable(cur)
		if next < 0 {
			m.abort()
			panic(fmt.Sprintf("async: deadlock: all %d unfinished processors wait in Recv on empty mailboxes", live))
		}
		cur = next
		pr := m.procs[cur]
		pr.wake <- true
		if r := <-m.yield; r != nil {
			m.abort()
			panic(r)
		}
		if pr.done {
			live--
		}
	}
	max := 0.0
	for _, pr := range m.procs {
		if pr.clock > max {
			max = pr.clock
		}
	}
	return max
}

// runnable returns the first processor, scanning cyclically from id from,
// that can make progress, or -1 when none can.
func (m *Machine) runnable(from int) int {
	p := len(m.procs)
	for k := 0; k < p; k++ {
		i := (from + k) % p
		if pr := m.procs[i]; !pr.done && (!pr.waiting || len(m.boxes[i]) > 0) {
			return i
		}
	}
	return -1
}

// abort unwinds every unfinished processor: each is parked on its baton,
// either before its first turn or inside Recv.
func (m *Machine) abort() {
	for _, pr := range m.procs {
		if !pr.done {
			pr.wake <- false
		}
	}
}

// run is the goroutine body of processor pr: wait for the first baton, run
// the program, and hand the baton back with the program's panic value, or
// nil once it returns.
func (pr *Proc) run(program func(p *Proc)) {
	if !<-pr.wake {
		return
	}
	defer func() {
		r := recover()
		if pr.aborted {
			return
		}
		pr.done = true
		pr.m.yield <- r
	}()
	program(pr)
}

// Sent returns the total messages admitted by the network.
func (m *Machine) Sent() int { return m.sent }

// OfflineBound returns the asynchronous lower bound
// max(n/m, x̄, ȳ) + latency for a workload with the given totals.
func (m *Machine) OfflineBound(n, xbar, ybar int) model.Time {
	t := float64(n) / float64(m.cfg.M)
	if f := float64(xbar); f > t {
		t = f
	}
	if f := float64(ybar); f > t {
		t = f
	}
	return t + m.cfg.Latency
}
