package main

import (
	"testing"
	"time"

	"medvault/internal/obs"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, b, c := makePlan(w, 7, 1), makePlan(w, 7, 1), makePlan(w, 8, 1)
		if a.digest() != b.digest() {
			t.Errorf("%s: same seed, different op sequences", w.name)
		}
		ad, an := a.expectedErrors()
		bd, bn := b.expectedErrors()
		if ad != bd || an != bn {
			t.Errorf("%s: same seed, expected errors %d/%d vs %d/%d", w.name, ad, an, bd, bn)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 7 and 8 give the same op sequence", w.name)
		}
	}
}

// tiny shrinks a workload so the whole pipeline runs in about a second.
func tiny(s spec) spec {
	s.preload, s.history = 60, min(s.history, 120)
	s.rate = [2]int{max(s.rate[0]/40, 5), max(s.rate[1]/40, 5)}
	return s
}

func newResult() *result { return &result{Metrics: map[string]metric{}, samples: map[string]int{}} }

func TestEveryWorkloadPassesTheGateAtTinySize(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			p := makePlan(tiny(w), 3, 1)
			res := newResult()
			if err := endToEnd(p, t.TempDir(), res); err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("end-to-end: %d of %d failed: %v", res.Failed, res.Attempted, res.firstErr)
			}
			if len(res.Metrics) != 14 {
				t.Errorf("end-to-end reported %d metrics, want 14", len(res.Metrics))
			}
			res = newResult()
			if err := perLayer(p, t.TempDir(), res); err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Fatalf("per-layer: %d of %d failed: %v", res.Failed, res.Attempted, res.firstErr)
			}
			if got := res.Metrics["trace.accounted_ratio"].Value; w.shards == 1 && (got < 0.999 || got > 1.001) {
				t.Errorf("self times plus unattributed time cover %.4f of traced latency, want 1", got)
			}
		})
	}
}

func TestSelfTimesAccountForTracedLatency(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	// core.put [10,90) with seal [20,30) and wal.enqueue [40,80), which
	// has wal.commit [50,75); the trace runs [0,100).
	tr := &obs.Trace{Start: t0, Dur: us(100), Spans: []*obs.Span{{
		Name: "core.put", Start: at(10), Dur: us(80), Children: []*obs.Span{
			{Name: "crypto.seal", Start: at(20), Dur: us(10)},
			{Name: "wal.enqueue", Start: at(40), Dur: us(40), Children: []*obs.Span{
				{Name: "wal.commit", Start: at(50), Dur: us(25)},
			}},
		},
	}}}
	s := newSpanStats()
	s.add(tr)
	want := map[string]time.Duration{"core.put": us(30), "crypto.seal": us(10), "wal.enqueue": us(15), "wal.commit": us(25)}
	for name, d := range want {
		if got := s.self[name]; len(got) != 1 || time.Duration(got[0]) != d {
			t.Errorf("%s self = %v, want %v", name, got, d)
		}
	}
	if s.unattributed != us(20) || s.selfTotal+s.unattributed != tr.Dur {
		t.Errorf("unattributed %v + self %v, want 20µs + 80µs", s.unattributed, s.selfTotal)
	}
	// Overlapping children (a concurrent fan-out) are covered once.
	if got := covered([]*obs.Span{{Start: at(0), Dur: us(10)}, {Start: at(5), Dur: us(10)}, {Start: at(30), Dur: us(5)}}, at(0), at(100)); got != us(20) {
		t.Errorf("covered = %v, want 20µs", got)
	}
}
