package main

import (
	"sort"
	"time"

	"medvault/internal/obs"
)

// spanStats reduces finished traces to per-layer self times. A span's self
// time is its duration minus the part of it its children cover; the
// trace's unattributed time is the part no span covers at all. For an op
// whose spans run one after another, the self times plus the unattributed
// time add up to the op's traced latency exactly.
type spanStats struct {
	self         map[string][]float64 // span name -> per-op self time, ns
	selfTotal    time.Duration        // sum of every span's self time
	unattributed time.Duration
	traced       time.Duration
	perOp        map[string]float64 // scratch, reused per trace
}

func newSpanStats() *spanStats {
	return &spanStats{self: map[string][]float64{}, perOp: map[string]float64{}}
}

// add folds one finished (hence immutable) trace in.
func (s *spanStats) add(tr *obs.Trace) {
	clear(s.perOp)
	for _, sp := range tr.Spans {
		s.walk(sp)
	}
	for name, ns := range s.perOp {
		s.self[name] = append(s.self[name], ns)
	}
	s.traced += tr.Dur
	s.unattributed += tr.Dur - covered(tr.Spans, tr.Start, tr.Start.Add(tr.Dur))
}

func (s *spanStats) walk(sp *obs.Span) {
	end := sp.Start.Add(sp.Dur)
	self := sp.Dur - covered(sp.Children, sp.Start, end)
	s.perOp[sp.Name] += float64(self)
	s.selfTotal += self
	for _, c := range sp.Children {
		s.walk(c)
	}
}

func (s *spanStats) merge(o *spanStats) {
	for name, v := range o.self {
		s.self[name] = append(s.self[name], v...)
	}
	s.selfTotal += o.selfTotal
	s.unattributed += o.unattributed
	s.traced += o.traced
}

// covered is the length of the union of the spans' intervals clipped to
// [from, to]. Fan-out ops run shard spans concurrently, so intervals may
// overlap.
func covered(spans []*obs.Span, from, to time.Time) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(spans))
	for _, sp := range spans {
		a, b := sp.Start, sp.Start.Add(sp.Dur)
		if a.Before(from) {
			a = from
		}
		if b.After(to) {
			b = to
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	return total + cur.b.Sub(cur.a)
}

// quantile returns the q-quantile of xs (sorted in place), interpolating
// between order statistics; 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// durQuantile is quantile over durations, in the given unit.
func durQuantile(ds []time.Duration, q float64, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return quantile(xs, q)
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }
