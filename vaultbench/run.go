package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"medvault/internal/audit"
	"medvault/internal/authz"
	"medvault/internal/core"
	"medvault/internal/ehr"
	"medvault/internal/faultfs"
	"medvault/internal/obs"
	"medvault/internal/vcrypto"
)

// store is one durable cluster under test, opened through the counting
// device wrapper.
type store struct {
	p        *plan
	dir      string
	master   vcrypto.Key
	dev      *countingFS
	c        *core.Cluster
	versions []uint16 // acked version count per record index; 0 = not stored
	bodies   atomic.Int64
	audited  atomic.Int64 // audited ops issued against this store
}

func newStore(p *plan, dir string) *store {
	master := vcrypto.DeriveKey(vcrypto.Key{}, "vaultbench/"+strconv.FormatInt(p.seed, 10))
	return &store{p: p, dir: dir, master: master, dev: newCountingFS(faultfs.OS{}, dir),
		versions: make([]uint16, p.records)}
}

// open opens (or reopens) the cluster and provisions the principals, which
// are process state, not vault data.
func (s *store) open() error {
	c, err := core.OpenCluster(core.Config{
		Name:                    "vaultbench",
		Master:                  s.master,
		Dir:                     s.dir,
		FS:                      s.dev,
		AuditCheckpointInterval: 1000,
		DEKCacheEntries:         s.p.dekCache,
		BlockCacheBytes:         s.p.blockCache,
	}, s.p.shards)
	if err != nil {
		return err
	}
	a := c.Authz()
	for _, r := range authz.StandardRoles() {
		a.DefineRole(r)
	}
	for _, ac := range actors {
		if err := a.AddPrincipal(ac.id, ac.role); err != nil {
			c.Close()
			return err
		}
	}
	s.c = c
	return nil
}

func (s *store) close() error {
	if s.c == nil {
		return nil
	}
	err := s.c.Close()
	s.c = nil
	return err
}

// setup creates the store, preloads the records and replays the read
// history. It runs as a single client: set-up work that leaves a CPU idle
// is far less sensitive to a shared host's stolen time, so setup_s stays
// comparable between runs. It returns the unexpected outcomes.
func (s *store) setup() (failed int, err error) {
	if err := os.RemoveAll(s.dir); err != nil {
		return 0, err
	}
	if err := s.open(); err != nil {
		return 0, err
	}
	ctx := context.Background()
	for i := 0; i < s.p.preload; i++ {
		if s.exec(ctx, op{kind: opPut, actor: uint8(i % firstNurse), rec: int32(i)}, nil) != nil {
			failed++
		}
	}
	for _, o := range s.p.history {
		if s.exec(ctx, o, nil) != nil {
			failed++
		}
	}
	return failed, nil
}

// errUnexpected marks an outcome the plan did not expect.
var errUnexpected = errors.New("unexpected outcome")

// exec issues one op and checks its outcome and result. A non-nil return is
// a failure; expected denials and misses return nil.
func (s *store) exec(ctx context.Context, o op, lat *time.Duration) error {
	w, c := s.p.w, s.c
	actor := actors[o.actor].id
	i := int(o.rec)
	s.audited.Add(1)
	var err error
	ok := true
	start := time.Now()
	switch o.kind {
	case opGet:
		var rec ehr.Record
		var ver core.Version
		rec, ver, err = c.GetCtx(ctx, actor, recordID(i))
		elapsed(lat, start)
		if err == nil {
			ok = w.matches(rec, i, int(ver.Number))
		}
	case opProbe:
		_, _, err = c.GetCtx(ctx, actor, probeID(i))
		elapsed(lat, start)
	case opPut, opCorrect:
		v := int(s.versions[i]) + 1
		rec := w.record(i, v)
		start = time.Now()
		var ver core.Version
		if o.kind == opPut {
			ver, err = c.PutCtx(ctx, actor, rec)
		} else {
			ver, err = c.CorrectCtx(ctx, actor, rec)
		}
		elapsed(lat, start)
		if err == nil {
			ok = int(ver.Number) == v
			s.versions[i] = uint16(v)
			s.bodies.Add(int64(len(rec.Body)))
		}
	case opDenyWrite:
		rec := w.record(i, 1)
		start = time.Now()
		_, err = c.CorrectCtx(ctx, actor, rec)
		elapsed(lat, start)
	case opSearch:
		var ids []string
		ids, err = c.SearchCtx(ctx, actors[0].id, w.conds[i])
		elapsed(lat, start)
		if err == nil {
			ok = s.searchCorrect(i, ids)
		}
	case opAuditRecord, opAuditActor:
		q := audit.Query{Record: recordID(i)}
		if o.kind == opAuditActor {
			q = audit.Query{Actor: actors[i].id}
		}
		var evs []audit.Event
		evs, err = c.AuditEventsCtx(ctx, actor, q)
		elapsed(lat, start)
		// Every stored record has at least its creation event.
		ok = err != nil || o.kind == opAuditActor || len(evs) > 0
		for _, e := range evs {
			if (q.Record != "" && e.Record != q.Record) || (q.Actor != "" && e.Actor != q.Actor) {
				ok = false
			}
		}
	case opDisclosures:
		var ds []core.Disclosure
		ds, err = c.AccountingOfDisclosuresCtx(ctx, actor, mrnOf(i))
		elapsed(lat, start)
		for _, d := range ds {
			if j, isRec := recordIndex(d.Record); !isRec || mrnOf(j) != mrnOf(i) {
				ok = false
			}
		}
	}
	switch o.want {
	case wantOK:
		if err != nil {
			return fmt.Errorf("%s %s: %w", kindNames[o.kind], recordID(i), err)
		}
	case wantDenied:
		if !errors.Is(err, core.ErrDenied) {
			return fmt.Errorf("%s %s: want denial, got %v: %w", kindNames[o.kind], recordID(i), err, errUnexpected)
		}
	case wantNotFound:
		if !errors.Is(err, core.ErrNotFound) {
			return fmt.Errorf("%s %s: want not-found, got %v: %w", kindNames[o.kind], probeID(i), err, errUnexpected)
		}
	}
	if !ok {
		return fmt.Errorf("%s %s: wrong result: %w", kindNames[o.kind], recordID(i), errUnexpected)
	}
	return nil
}

func elapsed(lat *time.Duration, start time.Time) {
	if lat != nil {
		*lat = time.Since(start)
	}
}

// searchCorrect checks a search result: every hit has the keyword's
// condition, and every preloaded record with that condition is a hit.
func (s *store) searchCorrect(cond int, ids []string) bool {
	pre := 0
	for _, id := range ids {
		i, ok := recordIndex(id)
		if !ok || s.p.w.condition(i) != cond {
			return false
		}
		if i < s.p.preload {
			pre++
		}
	}
	return pre == s.p.preCount(cond)
}

// rounds is how many barrier-separated slices a timed phase runs in. Each
// round's throughput is measured on its own and the phase reports their
// median, so a burst of host noise in one round does not move the result.
const rounds = 5

// phase is the outcome of one timed run of both clients' op sequences.
type phase struct {
	elapsed    time.Duration
	clients    [2]time.Duration                  // each client's busy time
	roundRates []float64                         // ops/s of each round
	lat        [numKinds][]time.Duration         // a client's latencies in the current round
	roundLat   [rounds][numKinds][]time.Duration // both clients' latencies per round
	attempted  int
	failed     int
	firstErr   error
	spans      *spanStats // nil when untraced
}

// throughput is the median of the rounds' op rates.
func (ph *phase) throughput() float64 { return median(ph.roundRates) }

// minBeyond is how many samples a percentile needs past it.
const minBeyond = 10

// quantile reports the q-quantile of the kinds' latencies in unit, and the
// sample count. It is the median of the rounds' own quantiles when every
// round has at least minBeyond samples past q, so one noisy round does not
// move it; otherwise it is the quantile of all the phase's samples.
func (ph *phase) quantile(q float64, unit time.Duration, kinds ...opKind) (float64, int) {
	var perRound []float64
	var all []time.Duration
	for r := range ph.roundLat {
		var ds []time.Duration
		for _, k := range kinds {
			ds = append(ds, ph.roundLat[r][k]...)
		}
		all = append(all, ds...)
		if float64(len(ds))*(1-q) >= minBeyond {
			perRound = append(perRound, durQuantile(ds, q, unit))
		}
	}
	if len(perRound) == len(ph.roundLat) {
		return median(perRound), len(all)
	}
	return durQuantile(all, q, unit), len(all)
}

// runPhase runs both clients' sequences concurrently (closed loop: each
// client issues its next op when the previous one returns), in rounds.
// With a tracer, every op runs under its own trace, and each finished
// trace is reduced to per-layer self times.
func (s *store) runPhase(tracer *obs.Tracer) *phase {
	ph := &phase{}
	var per [2]*phase
	for c := range per {
		per[c] = &phase{}
		if tracer != nil {
			per[c].spans = newSpanStats()
		}
		for k := range per[c].lat {
			per[c].lat[k] = make([]time.Duration, 0, len(s.p.clients[c])/8)
		}
	}
	start := time.Now()
	for r := 0; r < rounds; r++ {
		roundStart := time.Now()
		n := 0
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			ops := s.p.clients[c]
			lo, hi := len(ops)*r/rounds, len(ops)*(r+1)/rounds
			n += hi - lo
			wg.Add(1)
			go func(c int, ops []op, lo int) {
				defer wg.Done()
				s.runClient(c, ops, lo, tracer, per[c])
				per[c].elapsed += time.Since(roundStart)
			}(c, ops[lo:hi], lo)
		}
		wg.Wait()
		ph.roundRates = append(ph.roundRates, float64(n)/time.Since(roundStart).Seconds())
		for k := range ph.roundLat[r] {
			for _, cp := range per {
				ph.roundLat[r][k] = append(ph.roundLat[r][k], cp.lat[k]...)
				cp.lat[k] = cp.lat[k][:0]
			}
		}
	}
	ph.elapsed = time.Since(start)
	if tracer != nil {
		ph.spans = newSpanStats()
	}
	for c, cp := range per {
		ph.clients[c] = cp.elapsed
		ph.attempted += cp.attempted
		ph.failed += cp.failed
		if ph.firstErr == nil {
			ph.firstErr = cp.firstErr
		}
		if cp.spans != nil {
			ph.spans.merge(cp.spans)
		}
	}
	return ph
}

// runClient issues ops in order; first is the index of ops[0] in the
// client's whole sequence, which names its trace.
func (s *store) runClient(c int, ops []op, first int, tracer *obs.Tracer, ph *phase) {
	for n, o := range ops {
		var lat time.Duration
		var err error
		if tracer == nil {
			err = s.exec(context.Background(), o, &lat)
		} else {
			ctx, tr := tracer.Start(context.Background(), kindNames[o.kind],
				"t"+strconv.Itoa(c)+"-"+strconv.Itoa(first+n))
			err = s.exec(ctx, o, &lat)
			tracer.Finish(tr, err)
			ph.spans.add(tr)
		}
		ph.attempted++
		ph.lat[o.kind] = append(ph.lat[o.kind], lat)
		if err != nil {
			ph.failed++
			if ph.firstErr == nil {
				ph.firstErr = err
			}
		}
	}
}

// gate is the correctness check run after the timed phase and again after
// reopen: the integrity sweep is clean, every acked put and correction
// reads back byte-identical at its latest version, and the audit chain
// holds at least one event per audited op issued. It returns the number of
// violations and the first one.
func (s *store) gate() (int, error) {
	violations := 0
	var first error
	fail := func(err error) {
		violations++
		if first == nil {
			first = err
		}
	}
	issued := s.audited.Load()
	rep, err := s.c.VerifyAll(nil, nil)
	if err != nil {
		fail(fmt.Errorf("gate: VerifyAll: %w", err))
	}
	if int64(rep.AuditEvents) < issued {
		fail(fmt.Errorf("gate: audit chain holds %d events for %d audited ops", rep.AuditEvents, issued))
	}
	ctx := context.Background()
	for i, v := range s.versions {
		if v == 0 {
			continue
		}
		rec, ver, err := s.c.GetCtx(ctx, actors[0].id, recordID(i))
		s.audited.Add(1)
		if err != nil {
			fail(fmt.Errorf("gate: read back %s: %w", recordID(i), err))
			continue
		}
		if ver.Number != uint64(v) || !s.p.w.matches(rec, i, int(v)) {
			fail(fmt.Errorf("gate: %s reads back as v%d, want v%d exactly", recordID(i), ver.Number, v))
		}
	}
	return violations, first
}

// check runs the gate and accounts for its reads and violations in res.
func (s *store) check(res *result) {
	before := s.audited.Load()
	v, err := s.gate()
	res.Attempted += int(s.audited.Load() - before)
	res.fail(v, err)
}

// reopen opens the closed store and returns how long the open took and the
// device traffic it caused.
func (s *store) reopen() (time.Duration, [6]devSnap, error) {
	before := s.dev.snapshot()
	start := time.Now()
	if err := s.open(); err != nil {
		return 0, [6]devSnap{}, fmt.Errorf("reopen: %w", err)
	}
	d := time.Since(start)
	after := s.dev.snapshot()
	var delta [6]devSnap
	for i := range delta {
		delta[i] = after[i].sub(before[i])
	}
	return d, delta, nil
}

// diskBytes sums the sizes of every file under the store.
func (s *store) diskBytes() int64 {
	var n int64
	_ = filepath.WalkDir(s.dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// heapLiveMB is the live heap after a full collection.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
