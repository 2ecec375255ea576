package provenance

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Replaying or re-verifying a custody log is dominated by Ed25519: one
// signature check per event costs ~100µs, everything else (decode, index,
// prev-hash and event-hash checks) a few µs. The cheap checks must run in
// log order because each event links to its predecessor; the signature of
// an event depends on nothing but the event. So callers walk the log
// sequentially with checkLink and hand signatures to a sigPool, which checks
// them on every core while the walk continues. Every signature is still
// checked before the caller returns, and the caller reports the error of the
// earliest bad event in walk order — the same error a serial walk reports.

// sigBatch is how many events a pool worker takes at a time: large enough
// that channel traffic is noise next to the signature checks, small enough
// that workers start while the walk has only just begun.
const sigBatch = 64

// sigJob is one event whose signature a pool worker checks. seq is the
// event's position in the caller's walk; rec is caller bookkeeping (the
// record ordinal for VerifyAll).
type sigJob struct {
	seq int
	rec int
	e   Event
}

// sigPool checks custody signatures on runtime.GOMAXPROCS(0) workers,
// started on the first batch so an empty log spawns nothing. It remembers
// the failure with the lowest seq; workers skip events past a known
// failure, since no later error can be the one reported. add and wait are
// called from one goroutine.
type sigPool struct {
	jobs  chan []sigJob
	batch []sigJob
	wg    sync.WaitGroup

	badSeq atomic.Int64 // lowest failing seq; math.MaxInt64 when none
	mu     sync.Mutex   // guards bad and err
	bad    sigJob
	err    error
}

func newSigPool() *sigPool {
	p := &sigPool{}
	p.badSeq.Store(math.MaxInt64)
	return p
}

// add queues one event's signature check.
func (p *sigPool) add(j sigJob) {
	if p.batch == nil {
		p.batch = make([]sigJob, 0, sigBatch)
	}
	p.batch = append(p.batch, j)
	if len(p.batch) == sigBatch {
		p.flush()
	}
}

func (p *sigPool) flush() {
	if len(p.batch) == 0 {
		return
	}
	if p.jobs == nil {
		n := runtime.GOMAXPROCS(0)
		// One queued batch per worker lets the walk run ahead of busy
		// workers without holding more than n batches in memory.
		p.jobs = make(chan []sigJob, n)
		p.wg.Add(n)
		for i := 0; i < n; i++ {
			go p.work()
		}
	}
	p.jobs <- p.batch
	p.batch = nil
}

func (p *sigPool) work() {
	defer p.wg.Done()
	for batch := range p.jobs {
		for i := range batch {
			j := &batch[i]
			if int64(j.seq) > p.badSeq.Load() {
				continue
			}
			if err := checkSig(j.e); err != nil {
				p.fail(j, err)
			}
		}
	}
}

func (p *sigPool) fail(j *sigJob, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if int64(j.seq) < p.badSeq.Load() {
		p.badSeq.Store(int64(j.seq))
		p.bad, p.err = *j, err
	}
}

// failed reports whether some signature has already failed, so the caller
// can stop walking: nothing it finds later can be the earliest error.
func (p *sigPool) failed() bool { return p.badSeq.Load() != math.MaxInt64 }

// wait checks every queued signature, stops the workers, and returns the
// earliest failure, if any.
func (p *sigPool) wait() (sigJob, error) {
	p.flush()
	if p.jobs != nil {
		close(p.jobs)
		p.wg.Wait()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bad, p.err
}

// checkLink runs the cheap, order-dependent checks on e as the next link
// after chain: index, prev-hash, and event hash.
func checkLink(chain []Event, e Event) error {
	if e.Index != uint64(len(chain)) {
		return fmt.Errorf("%w: record %s: index %d, want %d", ErrChainBroken, e.Record, e.Index, len(chain))
	}
	var wantPrev [32]byte
	if len(chain) > 0 {
		wantPrev = chain[len(chain)-1].Hash
	}
	if e.PrevHash != wantPrev {
		return fmt.Errorf("%w: record %s: prev-hash mismatch at index %d", ErrChainBroken, e.Record, e.Index)
	}
	if eventHash(e) != e.Hash {
		return fmt.Errorf("%w: record %s: content hash mismatch at index %d", ErrChainBroken, e.Record, e.Index)
	}
	return nil
}

// checkSig verifies the custodian's signature over e's hash.
func checkSig(e Event) error {
	if err := e.SignerKey.Verify(e.Hash[:], e.Signature); err != nil {
		return fmt.Errorf("%w: record %s index %d: %v", ErrBadSignature, e.Record, e.Index, err)
	}
	return nil
}

// verifyLink validates e as the next link after chain, signature included.
func verifyLink(chain []Event, e Event) error {
	if err := checkLink(chain, e); err != nil {
		return err
	}
	return checkSig(e)
}
