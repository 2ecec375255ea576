// Package checkpool runs the order-free checks of a sequential log walk on
// every core while the walk goes on, and reports the earliest failure.
//
// Replaying a tamper-evident log mixes two kinds of check. Link checks — a
// sequence number, a prev-hash — compare an event with the one before it,
// so they must run in log order, and they are cheap. The expensive checks —
// a content hash, a MAC, an Ed25519 signature — depend on nothing but the
// event itself. So a caller walks the log doing the link checks and hands
// each event to a Pool, which runs the rest on runtime.GOMAXPROCS(0)
// workers. Every queued check has run before Wait returns, and Wait reports
// the failure earliest in the walk. A caller that stops its walk at its own
// first failure, and lets a pool failure win over it, therefore reports
// exactly the error a serial walk reports: every queued job precedes the
// event the walk stopped at.
package checkpool

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Batch is how many jobs a worker takes at a time: large enough that
// channel traffic is noise next to the checks, small enough that workers
// start while the walk has only just begun.
const Batch = 64

// batch is a run of consecutive jobs; jobs[i] sits at walk position first+i.
type batch[J any] struct {
	first int
	jobs  []J
}

// Pool checks jobs queued by one walking goroutine. Jobs are numbered by
// the order of Add calls, starting at 0. Workers start on the first full
// batch, so a walk shorter than one batch is checked on the caller's
// goroutine at Wait and spawns nothing. The pool remembers the failure with
// the lowest position; workers skip jobs past a known failure, since no
// later error can be the one reported. Add, Failed and Wait are called
// from the walking goroutine.
type Pool[J any] struct {
	newCheck func() func(J) error
	cur      batch[J]
	next     int // position of the next Add
	jobs     chan batch[J]
	wg       sync.WaitGroup

	badSeq atomic.Int64 // lowest failing position; math.MaxInt64 when none
	mu     sync.Mutex   // guards bad and err
	bad    J
	err    error
}

// New returns a pool whose workers each call newCheck once and run the
// returned check on every job they take. A check may therefore keep
// scratch state — a keyed MAC, a hash buffer — without locking.
func New[J any](newCheck func() func(J) error) *Pool[J] {
	p := &Pool[J]{newCheck: newCheck}
	p.badSeq.Store(math.MaxInt64)
	return p
}

// Add queues one job's check.
func (p *Pool[J]) Add(j J) {
	if p.cur.jobs == nil {
		p.cur = batch[J]{first: p.next, jobs: make([]J, 0, Batch)}
	}
	p.cur.jobs = append(p.cur.jobs, j)
	p.next++
	if len(p.cur.jobs) == Batch {
		p.flush()
	}
}

func (p *Pool[J]) flush() {
	if len(p.cur.jobs) == 0 {
		return
	}
	if p.jobs == nil {
		n := runtime.GOMAXPROCS(0)
		// One queued batch per worker lets the walk run ahead of busy
		// workers without holding more than n batches in memory.
		p.jobs = make(chan batch[J], n)
		p.wg.Add(n)
		for i := 0; i < n; i++ {
			go p.work()
		}
	}
	p.jobs <- p.cur
	p.cur = batch[J]{}
}

func (p *Pool[J]) work() {
	defer p.wg.Done()
	check := p.newCheck()
	for b := range p.jobs {
		p.run(check, b)
	}
}

func (p *Pool[J]) run(check func(J) error, b batch[J]) {
	for i, j := range b.jobs {
		seq := b.first + i
		if int64(seq) > p.badSeq.Load() {
			return
		}
		if err := check(j); err != nil {
			p.fail(seq, j, err)
			return
		}
	}
}

func (p *Pool[J]) fail(seq int, j J, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if int64(seq) < p.badSeq.Load() {
		p.badSeq.Store(int64(seq))
		p.bad, p.err = j, err
	}
}

// Failed reports whether some check has already failed, so the caller can
// stop walking: nothing it finds later can be the earliest error.
func (p *Pool[J]) Failed() bool { return p.badSeq.Load() != math.MaxInt64 }

// Wait runs every queued check, stops the workers, and returns the earliest
// failure: its position, its job, and its error. err is nil when every
// check passed.
func (p *Pool[J]) Wait() (seq int, j J, err error) {
	if p.jobs == nil {
		if len(p.cur.jobs) > 0 {
			p.run(p.newCheck(), p.cur)
			p.cur = batch[J]{}
		}
	} else {
		p.flush()
		close(p.jobs)
		p.wg.Wait()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err == nil {
		return 0, j, nil
	}
	return int(p.badSeq.Load()), p.bad, p.err
}
