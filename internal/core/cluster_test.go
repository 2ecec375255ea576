package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"medvault/internal/audit"
	"medvault/internal/clock"
	"medvault/internal/ehr"
	"medvault/internal/vcrypto"
)

// TestShardOfGolden pins the record→shard mapping. These values are part of
// the durable format: a record is stored on the shard ShardOf names, so any
// change here silently strands every record in an existing multi-shard
// cluster. Changing the hash requires a deliberate format bump with a
// migration path — update these constants only as part of one.
func TestShardOfGolden(t *testing.T) {
	golden := []struct {
		id   string
		n    int
		want int
	}{
		{"", 2, 1}, {"", 4, 1}, {"", 8, 5},
		{"rec-0001", 2, 1}, {"rec-0001", 4, 3}, {"rec-0001", 8, 7},
		{"rec-0002", 2, 0}, {"rec-0002", 4, 2}, {"rec-0002", 8, 2},
		{"rec-0003", 2, 1}, {"rec-0003", 4, 1}, {"rec-0003", 8, 5},
		{"rec-0004", 2, 0}, {"rec-0004", 4, 0}, {"rec-0004", 8, 0},
		{"mrn-784-a", 2, 0}, {"mrn-784-a", 4, 2}, {"mrn-784-a", 8, 6},
		{"smoke-1", 2, 0}, {"smoke-1", 4, 0}, {"smoke-1", 8, 0},
		{"scale-w0-g0-0", 2, 0}, {"scale-w0-g0-0", 4, 0}, {"scale-w0-g0-0", 8, 0},
		{"scale-w3-g1-7", 2, 1}, {"scale-w3-g1-7", 4, 1}, {"scale-w3-g1-7", 8, 1},
		{"patient/9f31", 2, 0}, {"patient/9f31", 4, 0}, {"patient/9f31", 8, 0},
		{"ehr-2026-000042", 2, 0}, {"ehr-2026-000042", 4, 0}, {"ehr-2026-000042", 8, 4},
		{"z", 2, 1}, {"z", 4, 1}, {"z", 8, 5},
	}
	for _, g := range golden {
		if got := ShardOf(g.id, g.n); got != g.want {
			t.Errorf("ShardOf(%q, %d) = %d, want %d (hash change = format break)", g.id, g.n, got, g.want)
		}
	}
	// Degenerate shapes route to shard 0 rather than dividing by zero.
	for _, n := range []int{-3, 0, 1} {
		if got := ShardOf("anything", n); got != 0 {
			t.Errorf("ShardOf(_, %d) = %d, want 0", n, got)
		}
	}
}

// TestShardOfSpread sanity-checks the distribution: across a few thousand
// realistic IDs no shard of 4 should be starved or hot.
func TestShardOfSpread(t *testing.T) {
	counts := make([]int, 4)
	total := 4000
	for i := 0; i < total; i++ {
		counts[ShardOf(fmt.Sprintf("rec-%06d", i), 4)]++
	}
	for s, n := range counts {
		if n < total/8 || n > total/2 {
			t.Errorf("shard %d got %d of %d ids", s, n, total)
		}
	}
}

// auditKey projects an audit event onto its behavioral fields (everything a
// caller or compliance officer observes; chain internals like MACs are
// covered by VerifyAll).
func auditKey(e audit.Event) string {
	return fmt.Sprintf("%d|%s|%s|%s|%d|%s|%s|%s",
		e.Seq, e.Timestamp.Format(time.RFC3339Nano), e.Actor, e.Action, e.Version, e.Record, e.Outcome, e.Detail)
}

// TestAPIHasNoContextFreeTwins: every audited operation has exactly one
// entry point, and it takes a context. A context-free twin M next to MCtx
// would write audit events that can never carry the caller's trace ID.
func TestAPIHasNoContextFreeTwins(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeOf((*API)(nil)).Elem(),
		reflect.TypeOf((*Cluster)(nil)),
		reflect.TypeOf((*Vault)(nil)),
	} {
		if typ.NumMethod() == 0 {
			t.Fatalf("%v has no exported methods; the check proves nothing", typ)
		}
		for i := 0; i < typ.NumMethod(); i++ {
			name := typ.Method(i).Name
			if _, ok := typ.MethodByName(name + "Ctx"); ok {
				t.Errorf("%v has both %s and %sCtx; keep only the context-taking %sCtx", typ, name, name, name)
			}
		}
	}
}

// workloadTarget is the part of the operation surface driveWorkload uses,
// provided by both a Cluster and one of its shard Vaults.
type workloadTarget interface {
	PutCtx(ctx context.Context, actor string, rec ehr.Record) (Version, error)
	GetCtx(ctx context.Context, actor, id string) (ehr.Record, Version, error)
	HistoryCtx(ctx context.Context, actor, id string) ([]Version, error)
	CorrectCtx(ctx context.Context, actor string, rec ehr.Record) (Version, error)
	ShredCtx(ctx context.Context, actor, id string) error
	PlaceHoldCtx(ctx context.Context, actor, id, reason string) error
	ReleaseHoldCtx(ctx context.Context, actor, id string) error
	SearchCtx(ctx context.Context, actor, keyword string) ([]string, error)
	BreakGlassCtx(ctx context.Context, actor, reason string, duration time.Duration) error
	AccountingOfDisclosuresCtx(ctx context.Context, actor, mrn string) ([]Disclosure, error)
}

// driveWorkload runs the scripted compliance workload against v, returning
// the errors observed (for cross-run comparison).
func driveWorkload(t *testing.T, v workloadTarget, vc *clock.Virtual) []string {
	t.Helper()
	ctx := context.Background()
	var outcomes []string
	note := func(step string, err error) {
		outcomes = append(outcomes, fmt.Sprintf("%s: err=%v", step, err))
	}
	recs := clinicalRecords(t, 100, 7)
	denied := recs[6]
	recs = recs[:6]
	for i, r := range recs {
		_, err := v.PutCtx(ctx, "dr-house", r)
		note(fmt.Sprintf("put-%d", i), err)
	}
	vc.Advance(time.Hour)
	_, _, err := v.GetCtx(ctx, "nurse-joy", recs[0].ID)
	note("get-nurse", err)
	_, err = v.PutCtx(ctx, "nurse-joy", denied)
	note("put-denied", err)
	_, _, err = v.GetCtx(ctx, "dr-house", "no-such-record")
	note("get-missing", err)
	fix := recs[1]
	fix.Body = "corrected " + fix.Body
	_, err = v.CorrectCtx(ctx, "dr-house", fix)
	note("correct", err)
	err = v.BreakGlassCtx(ctx, "clerk-bob", "er consult", 30*time.Minute)
	note("break-glass", err)
	_, _, err = v.GetCtx(ctx, "clerk-bob", recs[2].ID)
	note("get-break-glass", err)
	err = v.PlaceHoldCtx(ctx, "officer-kim", recs[3].ID, "litigation 44-B")
	note("hold", err)
	err = v.ShredCtx(ctx, "arch-lee", recs[3].ID)
	note("shred-held", err)
	err = v.ReleaseHoldCtx(ctx, "officer-kim", recs[3].ID)
	note("release", err)
	vc.Advance(time.Hour)
	ids, err := v.SearchCtx(ctx, "dr-house", strings.Fields(recs[4].Title)[0])
	note(fmt.Sprintf("search(%d)", len(ids)), err)
	_, err = v.AccountingOfDisclosuresCtx(ctx, "officer-kim", recs[0].MRN)
	note("disclosures", err)
	_, err = v.HistoryCtx(ctx, "dr-house", recs[1].ID)
	note("history", err)
	return outcomes
}

// TestClusterOneShardEquivalence pins the tentpole's core promise: a
// one-shard cluster is behaviorally identical to a bare vault. The same
// scripted workload runs against both, and the audit journal (every field a
// caller observes), the VerifyAll report, the tree-head size, and every
// step's error must match exactly.
func TestClusterOneShardEquivalence(t *testing.T) {
	ctx := context.Background()
	master, err := vcrypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	vcA, vcB := clock.NewVirtual(testEpoch), clock.NewVirtual(testEpoch)
	bare, err := open(Config{Name: "equiv", Master: master, Clock: vcA})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	clu, err := OpenCluster(Config{Name: "equiv", Master: master, Clock: vcB}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Close()
	registerStaff(t, bare)
	registerStaff(t, clu)

	outA := driveWorkload(t, bare, vcA)
	outB := driveWorkload(t, clu, vcB)
	if !reflect.DeepEqual(outA, outB) {
		t.Errorf("workload outcomes diverge:\nbare:    %v\ncluster: %v", outA, outB)
	}

	repA, errA := bare.VerifyAll(nil, nil)
	repB, errB := clu.VerifyAll(nil, nil)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("VerifyAll errors diverge: %v vs %v", errA, errB)
	}
	if repA != repB {
		t.Errorf("VerifyAll reports diverge:\nbare:    %+v\ncluster: %+v", repA, repB)
	}
	headA, headsB := bare.Head(), clu.Heads()
	if len(headsB) != 1 || headA.Size != headsB[0].Size {
		t.Errorf("heads diverge: bare size %d, cluster %v", headA.Size, headsB)
	}

	evA, err := bare.AuditEventsCtx(ctx, "officer-kim", audit.Query{})
	if err != nil {
		t.Fatal(err)
	}
	evB, err := clu.AuditEventsCtx(ctx, "officer-kim", audit.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(evA) != len(evB) {
		t.Fatalf("audit journal lengths diverge: %d vs %d", len(evA), len(evB))
	}
	for i := range evA {
		if auditKey(evA[i]) != auditKey(evB[i]) {
			t.Errorf("audit event %d diverges:\nbare:    %s\ncluster: %s", i, auditKey(evA[i]), auditKey(evB[i]))
		}
	}
}

// newCluster builds a memory-backed n-shard cluster with staff registered.
func newCluster(t *testing.T, n int) (*Cluster, *clock.Virtual) {
	t.Helper()
	master, err := vcrypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	vc := clock.NewVirtual(testEpoch)
	c, err := OpenCluster(Config{Name: "cluster-test", Master: master, Clock: vc}, n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	registerStaff(t, c)
	return c, vc
}

// TestClusterRoutingAndMerge exercises the basic cluster contract: records
// land on their hashed shard, cluster-wide observables are merged sorted
// unions, and cross-shard search/disclosures see everything.
func TestClusterRoutingAndMerge(t *testing.T) {
	ctx := context.Background()
	c, _ := newCluster(t, 4)
	var ids []string
	perShard := make([]int, 4)
	for i, rec := range clinicalRecords(t, 300, 12) {
		if _, err := c.PutCtx(ctx, "dr-house", rec); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		ids = append(ids, rec.ID)
		perShard[ShardOf(rec.ID, 4)]++
	}
	if c.Len() != 12 {
		t.Errorf("Len = %d", c.Len())
	}
	for s := 0; s < 4; s++ {
		if got := c.Shard(s).Len(); got != perShard[s] {
			t.Errorf("shard %d holds %d records, want %d", s, got, perShard[s])
		}
		if got := c.Shard(s).Head().Size; got != uint64(perShard[s]) {
			t.Errorf("shard %d head size %d, want %d", s, got, perShard[s])
		}
	}
	sort.Strings(ids)
	if got := c.RecordIDs(); !reflect.DeepEqual(got, ids) {
		t.Errorf("RecordIDs = %v, want %v", got, ids)
	}
	for _, id := range ids {
		if _, _, err := c.GetCtx(ctx, "dr-house", id); err != nil {
			t.Errorf("get %s: %v", id, err)
		}
	}
	rep, err := c.VerifyAll(nil, nil)
	if err != nil {
		t.Fatalf("VerifyAll: %v", err)
	}
	if rep.RecordsChecked != 12 || rep.VersionsChecked != 12 {
		t.Errorf("report = %+v", rep)
	}
	if len(c.Heads()) != 4 {
		t.Errorf("Heads = %d", len(c.Heads()))
	}
	// Per-shard remembered heads verify against their own shard.
	heads := c.Heads()
	for s := 0; s < 4; s++ {
		if _, err := c.Shard(s).VerifyAll(heads[s:s+1], nil); err != nil {
			t.Errorf("shard %d VerifyAll with remembered head: %v", s, err)
		}
	}
	// Cluster-level VerifyAll refuses ambiguous remembered artifacts.
	if _, err := c.VerifyAll(heads[:1], nil); err == nil {
		t.Error("cluster VerifyAll accepted a remembered head it cannot attribute")
	}
}

// TestClusterFanOutErrorAggregation wedges one shard (by closing it behind
// the cluster's back) and checks that fan-out operations report that shard's
// failure by index without masking the healthy shards.
func TestClusterFanOutErrorAggregation(t *testing.T) {
	c, _ := newCluster(t, 2)
	for _, rec := range clinicalRecords(t, 400, 6) {
		if _, err := c.PutCtx(context.Background(), "dr-house", rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Shard(1).Close(); err != nil {
		t.Fatal(err)
	}

	_, err := c.VerifyAll(nil, nil)
	if err == nil {
		t.Fatal("VerifyAll succeeded with a dead shard")
	}
	if !strings.Contains(err.Error(), "shard 1:") {
		t.Errorf("error does not name shard 1: %v", err)
	}
	if strings.Contains(err.Error(), "shard 0:") {
		t.Errorf("healthy shard 0 reported as failed: %v", err)
	}
	if !errors.Is(err, ErrClosed) {
		t.Errorf("wrapped sentinel lost: %v", err)
	}
	// The healthy shard still verifies on its own.
	if _, err := c.Shard(0).VerifyAll(nil, nil); err != nil {
		t.Errorf("healthy shard broken by sibling failure: %v", err)
	}

	h := c.Health()
	if h.Open {
		t.Error("cluster reports Open with a closed shard")
	}
	per := c.ShardHealths()
	if !per[0].Open || per[1].Open {
		t.Errorf("per-shard health wrong: %+v", per)
	}

	// Closing the cluster reports only the already-closed shard's... nothing:
	// Vault.Close on a closed vault is a no-op nil, so Close succeeds.
	if err := c.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestOpenClusterLayout covers the durable layout rules: the manifest pins
// the shard count, shards=0 adopts it, mismatches and sharding over a
// single-vault directory are refused, and one shard stays manifest-free.
func TestOpenClusterLayout(t *testing.T) {
	master, err := vcrypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	vc := clock.NewVirtual(testEpoch)
	dir := t.TempDir()

	c, err := OpenCluster(Config{Name: "layout", Master: master, Clock: vc, Dir: dir}, 3)
	if err != nil {
		t.Fatal(err)
	}
	registerStaff(t, c)
	for _, rec := range clinicalRecords(t, 500, 5) {
		if _, err := c.PutCtx(context.Background(), "dr-house", rec); err != nil {
			t.Fatal(err)
		}
	}
	want := c.RecordIDs()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenCluster(Config{Name: "layout", Master: master, Clock: vc, Dir: dir}, 2); err == nil {
		t.Fatal("shard-count change accepted on reopen")
	}

	// shards=0 adopts the manifest.
	c2, err := OpenCluster(Config{Name: "layout", Master: master, Clock: vc, Dir: dir}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c2.NumShards() != 3 {
		t.Errorf("adopted %d shards, want 3", c2.NumShards())
	}
	if got := c2.RecordIDs(); !reflect.DeepEqual(got, want) {
		t.Errorf("records after reopen = %v, want %v", got, want)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}

	// A single-vault directory cannot be sharded in place.
	soloDir := t.TempDir()
	solo, err := open(Config{Name: "solo", Master: master, Clock: vc, Dir: soloDir})
	if err != nil {
		t.Fatal(err)
	}
	if err := solo.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCluster(Config{Name: "solo", Master: master, Clock: vc, Dir: soloDir}, 4); err == nil {
		t.Fatal("sharding over a single-vault layout accepted")
	}
	// But it reopens fine as a one-shard cluster, manifest-free.
	c3, err := OpenCluster(Config{Name: "solo", Master: master, Clock: vc, Dir: soloDir}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c3.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(soloDir, clusterManifest)); err == nil {
		t.Fatal("one-shard cluster wrote a manifest into a single-vault layout")
	}

	if _, err := OpenCluster(Config{Master: master, Clock: vc}, -1); err == nil {
		t.Error("negative shard count accepted")
	}
	if _, err := OpenCluster(Config{Master: master, Clock: vc}, MaxShards+1); err == nil {
		t.Error("oversized shard count accepted")
	}
}
