package checkpool

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestPoolKeepsEarliestFailure: workers finish batches in any order, so
// the pool must keep the lowest-position failure whichever is reported
// first.
func TestPoolKeepsEarliestFailure(t *testing.T) {
	early, late := errors.New("early"), errors.New("late")
	for _, order := range [][]int{{4, 9}, {9, 4}} {
		p := New(func() func(string) error { return nil })
		for _, seq := range order {
			err := late
			if seq == 4 {
				err = early
			}
			p.fail(seq, fmt.Sprintf("job-%d", seq), err)
		}
		if !p.Failed() {
			t.Fatal("pool with failures reports none")
		}
		if seq, job, err := p.Wait(); err != early || seq != 4 || job != "job-4" {
			t.Errorf("failures reported in order %v: pool kept %v (seq %d, %s), want the earliest", order, err, seq, job)
		}
	}
}

// TestPoolChecksEveryJobAndReportsEarliest runs real walks of several
// lengths — shorter than a batch, exactly batches, ragged — at GOMAXPROCS
// 1 and 4: a clean walk checks every job exactly once, and a walk with
// failures in several batches reports the first.
func TestPoolChecksEveryJobAndReportsEarliest(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, Batch - 1, Batch, 3*Batch + 7} {
			var checked atomic.Int64
			var workers atomic.Int64
			p := New(func() func(int) error {
				workers.Add(1)
				return func(int) error { checked.Add(1); return nil }
			})
			for i := 0; i < n; i++ {
				p.Add(i)
			}
			if _, _, err := p.Wait(); err != nil || checked.Load() != int64(n) {
				t.Errorf("GOMAXPROCS=%d n=%d: Wait = %v after %d checks, want nil after %d", procs, n, err, checked.Load(), n)
			}
			if n < Batch && workers.Load() > 1 {
				t.Errorf("GOMAXPROCS=%d n=%d: a walk shorter than one batch started %d workers", procs, n, workers.Load())
			}
		}

		bad := map[int]bool{2*Batch + 5: true, Batch + 3: true, 3*Batch + 1: true}
		p := New(func() func(int) error {
			return func(j int) error {
				if bad[j] {
					return fmt.Errorf("job %d failed", j)
				}
				return nil
			}
		})
		for i := 0; i < 4*Batch; i++ {
			p.Add(i)
		}
		seq, job, err := p.Wait()
		if err == nil || seq != Batch+3 || job != Batch+3 || err.Error() != fmt.Sprintf("job %d failed", Batch+3) {
			t.Errorf("GOMAXPROCS=%d: Wait = %d, %d, %v; want the failure at %d", procs, seq, job, err, Batch+3)
		}
		runtime.GOMAXPROCS(prev)
	}
}
