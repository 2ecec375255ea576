// Command vaultbench is MedVault's benchmark. It runs one seeded clinical
// workload against a durable core.Cluster in-process, through
// core.OpenCluster and the …Ctx methods of core.API, checks that every
// result is correct, and prints each metric by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (untraced run); with
// -trace 1 they are the per-layer ones (an untraced and a traced run of the
// same op sequence). See README.md for the workloads and metrics.
//
//	go run . -workload ward_round -seed 1 -seconds 8 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"medvault/internal/audit"
	"medvault/internal/blockstore"
	"medvault/internal/faultfs"
	"medvault/internal/obs"
	"medvault/internal/provenance"
	"medvault/internal/vcrypto"
)

// setups is how many times an untraced run builds its store; setup_s is
// the median, and the last store is the one measured.
const setups = 5

// gated lists the end-to-end metrics the JSON result carries, as
// BENCHMARK.json does; the report prints every end-to-end metric. The
// timed-phase timings are report-only: both clients keep both CPUs busy,
// so on a shared 2-vCPU host stolen time moves them by more than a quarter
// between runs, wider than any regression bound may be. Set-up and reopen
// run single-threaded and are medians of several repetitions; heap and
// space follow from the seeded end state.
var gated = map[string]bool{"setup_s": true, "reopen_s": true, "heap_live_mb": true, "space_amp": true}

// reopens is how many times an untraced run reopens its closed store;
// reopen_s is the median.
const reopens = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	samples  map[string]int // sample count behind each metric, for the report
	phases   []string       // timed-phase summaries, for the report
	firstErr error
}

func (r *result) set(name string, v float64, unit string, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

// fail records failures, keeping the first error for the report.
func (r *result) fail(n int, err error) {
	r.Failed += n
	if n > 0 && r.firstErr == nil {
		r.firstErr = err
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("vaultbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: ward_round, admission_burst or compliance_review")
	seed := fl.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fl.Int("seconds", 8, "nominal measured seconds; sets the op count")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	scratch := fl.String("dir", ".bench_build", "directory the vaults are created under")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "vaultbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	base := filepath.Join(*scratch, "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(base, 0o700); err != nil {
		fmt.Fprintln(stderr, "vaultbench:", err)
		return 1
	}
	defer os.RemoveAll(base)

	h, err := fingerprint(base)
	if err != nil {
		fmt.Fprintln(stderr, "vaultbench: fsync probe:", err)
		return 1
	}
	hj, _ := json.Marshal(h)
	fmt.Fprintf(stdout, "host %s\n", hj)

	p := makePlan(w, *seed, *seconds)
	denied, missing := p.expectedErrors()
	fmt.Fprintf(stdout, "workload %s seed %d: %d ops, digest %.16s, expected denials %d, expected misses %d\n",
		w.name, *seed, len(p.clients[0])+len(p.clients[1]), p.digest(), denied, missing)

	res := &result{Metrics: map[string]metric{}, samples: map[string]int{}}
	if *trace == 0 {
		err = endToEnd(p, base, res)
	} else {
		err = perLayer(p, base, res)
	}
	if err != nil {
		fmt.Fprintln(stderr, "vaultbench:", err)
		return 1
	}
	res.Correct = res.Failed == 0
	report(stdout, res, *trace == 0)
	if *trace == 0 {
		for name := range res.Metrics {
			if !gated[name] {
				delete(res.Metrics, name)
			}
		}
	}
	if res.firstErr != nil {
		fmt.Fprintln(stderr, "vaultbench: first failure:", res.firstErr)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "vaultbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// report prints every metric with its unit and sample count; with
// endToEnd, metrics outside gated are marked as printed here only.
func report(w io.Writer, res *result, endToEnd bool) {
	for _, p := range res.phases {
		fmt.Fprintln(w, p)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		note := ""
		if endToEnd && !gated[n] {
			note = " (report only)"
		}
		fmt.Fprintf(w, "%-34s %14.4f %-6s n=%d%s\n", n, m.Value, m.Unit, res.samples[n], note)
	}
	frac := 0.0
	if res.Attempted > 0 {
		frac = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "%-34s %14.6f %-6s attempted=%d failed=%d\n", "fail_frac", frac, "ratio", res.Attempted, res.Failed)
}

// buildStore creates a fresh store at dir and runs the set-up, returning it
// with its set-up time.
func buildStore(p *plan, dir string, res *result) (*store, time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	s := newStore(p, dir)
	start := time.Now()
	bad, err := s.setup()
	d := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	res.Attempted += p.preload + len(p.history)
	res.fail(bad, fmt.Errorf("set-up: %d unexpected outcomes", bad))
	return s, d, nil
}

// measure runs the timed phase on s and accounts for it in res.
func measure(s *store, tracer *obs.Tracer, res *result) *phase {
	runtime.GC()
	steal0, total0 := cpuTicks()
	ph := s.runPhase(tracer)
	steal1, total1 := cpuTicks()
	res.phases = append(res.phases, fmt.Sprintf("phase traced=%v: %d ops in %.2fs (clients busy %.2fs, %.2fs; round ops/s %.0f; cpu steal %.1f%%)",
		tracer != nil, ph.attempted, ph.elapsed.Seconds(), ph.clients[0].Seconds(), ph.clients[1].Seconds(), ph.roundRates,
		100*float64(steal1-steal0)/float64(max(total1-total0, 1))))
	res.Attempted += ph.attempted
	res.fail(ph.failed, ph.firstErr)
	return ph
}

// endToEnd is the untraced run: every end-to-end metric.
func endToEnd(p *plan, base string, res *result) error {
	var s *store
	var setupS []float64
	for k := 0; k < setups; k++ {
		if s != nil {
			if err := s.close(); err != nil {
				return err
			}
		}
		var d time.Duration
		var err error
		if s, d, err = buildStore(p, filepath.Join(base, "vault"), res); err != nil {
			return err
		}
		setupS = append(setupS, d.Seconds())
	}
	ph := measure(s, nil, res)
	heap := heapLiveMB()

	s.check(res)
	if err := s.close(); err != nil {
		return err
	}
	disk := s.diskBytes()
	// Reopen is timed reopens times and reported as the median; only the
	// last reopen is followed by the gate, whose reads would lengthen the
	// audit chain the others replay.
	var reopenS []float64
	for k := 0; k < reopens; k++ {
		d, _, err := s.reopen()
		if err != nil {
			return err
		}
		reopenS = append(reopenS, d.Seconds())
		if k == reopens-1 {
			s.check(res)
		}
		if err := s.close(); err != nil {
			return err
		}
	}

	res.set("setup_s", median(setupS), "s", len(setupS))
	res.set("throughput_ops_s", ph.throughput(), "ops/s", ph.attempted)
	latency(res, ph, "get", 0.99, time.Microsecond, "us", opGet)
	latency(res, ph, "put", 0.99, time.Microsecond, "us", opPut)
	v50, n := ph.quantile(0.5, time.Millisecond, opSearch)
	res.set("search_p50_ms", v50, "ms", n)
	latency(res, ph, "audit_query", 0.9, time.Millisecond, "ms", opAuditRecord, opAuditActor)
	latency(res, ph, "disclosures", 0.9, time.Millisecond, "ms", opDisclosures)
	res.set("reopen_s", median(reopenS), "s", len(reopenS))
	res.set("heap_live_mb", heap, "MB", 1)
	res.set("space_amp", float64(disk)/float64(s.bodies.Load()), "ratio", 1)
	return nil
}

// latency sets <name>_p50_<label> and <name>_p<hi>_<label> from the kinds'
// latencies.
func latency(res *result, ph *phase, name string, hi float64, unit time.Duration, label string, kinds ...opKind) {
	v, n := ph.quantile(0.5, unit, kinds...)
	res.set(name+"_p50_"+label, v, label, n)
	v, n = ph.quantile(hi, unit, kinds...)
	res.set(fmt.Sprintf("%s_p%d_%s", name, int(hi*100), label), v, label, n)
}

// perLayer runs the op sequence untraced (allocations, device and registry
// counters) and then traced on a fresh store (self times), and finally
// breaks the traced store's reopen down by layer.
func perLayer(p *plan, base string, res *result) error {
	a, _, err := buildStore(p, filepath.Join(base, "vault-a"), res)
	if err != nil {
		return err
	}
	reg0, dev0 := obs.Default.Snapshot(), a.dev.snapshot()
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	phU := measure(a, nil, res)
	runtime.ReadMemStats(&ms1)
	reg1, dev1 := obs.Default.Snapshot(), a.dev.snapshot()
	a.check(res)
	if err := a.close(); err != nil {
		return err
	}
	if err := os.RemoveAll(a.dir); err != nil {
		return err
	}

	b, _, err := buildStore(p, filepath.Join(base, "vault-b"), res)
	if err != nil {
		return err
	}
	tracer := obs.NewTracer(obs.TracerConfig{})
	phT := measure(b, tracer, res)
	b.check(res)
	if err := b.close(); err != nil {
		return err
	}
	reopen, reopenDev, err := b.reopen()
	if err != nil {
		return err
	}
	b.check(res)
	if err := b.close(); err != nil {
		return err
	}
	auditS, provS, err := b.reopenBreakdown()
	if err != nil {
		return err
	}

	ops := float64(phU.attempted)
	sp := phT.spans
	selfTime := func(metricName, span string, unit time.Duration, label string) {
		xs := sp.self[span]
		res.set(metricName, quantile(xs, 0.5)/float64(unit), label, len(xs))
	}
	selfTime("core.get.self_us", "core.get", time.Microsecond, "us")
	selfTime("core.put.self_us", "core.put", time.Microsecond, "us")
	selfTime("core.read_version.self_us", "core.read_version", time.Microsecond, "us")
	selfTime("core.search.self_ms", "core.search", time.Millisecond, "ms")
	selfTime("core.audit_events.self_ms", "core.audit_events", time.Millisecond, "ms")
	selfTime("core.disclosures.self_ms", "core.disclosures", time.Millisecond, "ms")
	selfTime("vcrypto.seal.us", "crypto.seal", time.Microsecond, "us")
	selfTime("vcrypto.open.us", "crypto.open", time.Microsecond, "us")
	selfTime("vcrypto.keystore_get.us", "keystore.get", time.Microsecond, "us")
	selfTime("blockstore.append.us", "blockstore.append", time.Microsecond, "us")
	selfTime("blockstore.sync.us", "blockstore.sync", time.Microsecond, "us")
	selfTime("blockstore.read.us", "blockstore.read", time.Microsecond, "us")
	selfTime("wal.enqueue.us", "wal.enqueue", time.Microsecond, "us")
	selfTime("wal.commit.us", "wal.commit", time.Microsecond, "us")
	selfTime("merkle.append.us", "merkle.append", time.Microsecond, "us")
	selfTime("index.add.us", "index.add", time.Microsecond, "us")
	selfTime("index.search.ms", "index.search", time.Millisecond, "ms")
	selfTime("audit.append.us", "audit.append", time.Microsecond, "us")

	hitRate := func(metricName, cache string) {
		h := counterDelta(reg0, reg1, "medvault_cache_hits_total", cache)
		m := counterDelta(reg0, reg1, "medvault_cache_misses_total", cache)
		res.set(metricName, h/(h+m), "ratio", int(h+m))
	}
	hitRate("core.block_cache.hit_rate", "block")
	hitRate("core.neg_cache.hit_rate", "negative")
	hitRate("vcrypto.dek_cache.hit_rate", "dek")
	appends := counterDelta(reg0, reg1, "medvault_wal_appends_total", "")
	commits := counterDelta(reg0, reg1, "medvault_wal_group_commits_total", "")
	res.set("wal.batching", appends/commits, "ratio", int(commits))
	events := counterDelta(reg0, reg1, "medvault_audit_events_total", "")
	res.set("audit.events_per_op", events/ops, "count", phU.attempted)

	blocks := dev1[dirBlocks].sub(dev0[dirBlocks])
	res.set("blockstore.syncs_per_write", float64(blocks.Fsyncs)/float64(blocks.Writes), "ratio", int(blocks.Writes))
	for i, d := range deviceDirs {
		dd := dev1[i].sub(dev0[i])
		res.set("device."+d+".fsyncs_per_op", float64(dd.Fsyncs)/ops, "count", phU.attempted)
		res.set("device."+d+".bytes_per_op", float64(dd.WriteBytes)/ops, "B", phU.attempted)
		fsyncMS := 0.0
		if dd.Fsyncs > 0 {
			fsyncMS = float64(dd.FsyncNanos) / float64(dd.Fsyncs) / 1e6
		}
		res.set("device."+d+".fsync_ms", fsyncMS, "ms", int(dd.Fsyncs))
		rr := reopenDev[i]
		res.set("device."+d+".reopen_read_mb", float64(rr.ReadBytes)/(1<<20), "MB", int(rr.Reads))
	}

	res.set("runtime.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/ops, "count", phU.attempted)
	res.set("runtime.bytes_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/ops, "B", phU.attempted)
	res.set("trace.overhead_ratio", phU.throughput()/phT.throughput(), "ratio", phT.attempted)
	res.set("trace.unattributed_frac", float64(sp.unattributed)/float64(sp.traced), "ratio", phT.attempted)
	// 1 when every op's spans run one after another; above 1 where a
	// cluster fans an op out to shards concurrently.
	res.set("trace.accounted_ratio", float64(sp.selfTotal+sp.unattributed)/float64(sp.traced), "ratio", phT.attempted)

	res.set("reopen.audit_s", auditS, "s", b.p.shards)
	res.set("reopen.provenance_s", provS, "s", b.p.shards)
	res.set("reopen.other_s", reopen.Seconds()-auditS-provS, "s", 1)
	return nil
}

// counterDelta sums a counter family's growth between two registry
// snapshots, over the series whose "cache" label is cache ("" = all).
func counterDelta(before, after []obs.FamilySnapshot, name, cache string) float64 {
	sum := func(snap []obs.FamilySnapshot) float64 {
		t := 0.0
		for _, f := range snap {
			if f.Name != name {
				continue
			}
			for _, s := range f.Series {
				if cache == "" || hasLabel(s.Labels, "cache", cache) {
					t += s.Value
				}
			}
		}
		return t
	}
	return sum(after) - sum(before)
}

func hasLabel(ls []obs.Label, k, v string) bool {
	for _, l := range ls {
		if l.Key == k && l.Value == v {
			return true
		}
	}
	return false
}

// reopenBreakdown times, from outside the vault, the two replays reopen
// performs per shard: the audit chain (audit.Open) and the custody chains
// (provenance.Open), each over its own blockstore.
func (s *store) reopenBreakdown() (auditS, provS float64, err error) {
	signer := vcrypto.SignerFromSeed(vcrypto.DeriveKey(s.master, "vault/signer"))
	macKey := vcrypto.DeriveKey(s.master, "vault/audit-mac")
	dirs := []string{s.dir}
	if s.p.shards > 1 {
		dirs = dirs[:0]
		for i := 0; i < s.p.shards; i++ {
			dirs = append(dirs, filepath.Join(s.dir, "shard-"+strconv.Itoa(i)))
		}
	}
	timed := func(sub string, open func(blockstore.Store) error) (float64, error) {
		start := time.Now()
		st, err := blockstore.OpenFileFS(faultfs.OS{}, sub, 0)
		if err != nil {
			return 0, err
		}
		err = open(st)
		d := time.Since(start).Seconds()
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		return d, err
	}
	for _, d := range dirs {
		a, err := timed(filepath.Join(d, "audit"), func(st blockstore.Store) error {
			_, err := audit.Open(audit.Config{Store: st, MACKey: macKey, Signer: signer, CheckpointInterval: 1000})
			return err
		})
		if err != nil {
			return 0, 0, fmt.Errorf("audit replay: %w", err)
		}
		pv, err := timed(filepath.Join(d, "prov"), func(st blockstore.Store) error {
			_, err := provenance.Open(provenance.Config{Store: st, Signer: signer, System: "vaultbench"})
			return err
		})
		if err != nil {
			return 0, 0, fmt.Errorf("provenance replay: %w", err)
		}
		auditS += a
		provS += pv
	}
	return auditS, provS, nil
}
