// Cluster: the vault deployment, from one shard to many in a process.
//
// OpenCluster is the one constructor. core.API is context-only, and a
// 1-shard cluster is the single-vault deployment.
//
// A Cluster hash-partitions record IDs across N independent Vault shards.
// Each shard is a complete trust boundary — its own WAL, blockstore,
// keystore, Merkle commitment log, audit chain, read caches, and lock
// stripes — so the split never separates security state from the data it
// protects, and a compromised (or wedged) shard's blast radius stays inside
// the shard. The shards share one clock, one authorizer, and one retention
// manager: authorization decisions are shard-local and fully audited on the
// shard that executes the operation, but the policy state they evaluate is
// process-wide, exactly as it was with a single vault.
//
// Routing: single-record operations go to ShardOf(id) and behave exactly as
// on a single vault. Whole-cluster operations (VerifyAll, Search, Close,
// Health, retention sweeps, disclosure accounting) fan out to every shard
// and merge deterministically — per-shard results are always combined in
// shard-index order, and order-bearing merges (audit events, disclosures)
// are then stably sorted by timestamp, so ties keep shard order.
//
// With one shard the Cluster is a pass-through: no manifest is written, the
// directory layout is the classic single-vault layout, and every operation
// delegates without wrapping, so behavior (including error text, audit
// journal, and on-disk fs op sequence) is that of its one Vault.
package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"medvault/internal/audit"
	"medvault/internal/authz"
	"medvault/internal/clock"
	"medvault/internal/ehr"
	"medvault/internal/faultfs"
	"medvault/internal/merkle"
	"medvault/internal/obs"
	"medvault/internal/provenance"
	"medvault/internal/retention"
	"medvault/internal/vcrypto"
)

// MaxShards bounds a cluster. The cap is arbitrary but keeps a typo'd
// -shards from fanning out ten thousand WALs.
const MaxShards = 256

// clusterManifest is the file recording a durable cluster's shard count.
// The shard count is part of the data layout — reopening with a different
// count would silently route records to shards that never stored them — so
// it is pinned at creation and checked on every open.
const clusterManifest = "cluster.conf"

// ShardOf maps a record ID onto one of n shards. The mapping is part of the
// durable format: records are stored on the shard this function names, so
// changing the hash is a format break (see the golden test in
// cluster_test.go). FNV-1a/64 is used for the same reason the lock stripes
// use FNV-1a/32 — tiny, allocation-free, and well distributed on short IDs.
func ShardOf(id string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	return int(h.Sum64() % uint64(n))
}

// API is the vault operation surface *Cluster implements. Everything above
// core — httpapi, backup, migrate, the bench adapter, the simulator —
// programs against this seam, so "one vault" is a deployment choice (a
// 1-shard cluster), not an architectural assumption.
//
// Every audited operation takes a context and there is no context-free
// variant: a trace ID the context carries is hashed and MACed into the audit
// event the operation writes, so a caller without a trace passes
// context.Background() explicitly.
type API interface {
	// Identity and lifecycle.
	Name() string
	PublicKey() vcrypto.PublicKey
	Sign(purpose string, data []byte) []byte
	Health() HealthStatus
	Close() error
	Len() int
	StorageBytes() int64
	Heads() []merkle.SignedTreeHead
	Authz() *authz.Authorizer
	Retention() *retention.Manager

	// Record operations (routed to one shard).
	PutCtx(ctx context.Context, actor string, rec ehr.Record) (Version, error)
	GetCtx(ctx context.Context, actor, id string) (ehr.Record, Version, error)
	GetVersionCtx(ctx context.Context, actor, id string, number uint64) (ehr.Record, Version, error)
	HistoryCtx(ctx context.Context, actor, id string) ([]Version, error)
	CorrectCtx(ctx context.Context, actor string, rec ehr.Record) (Version, error)
	ShredCtx(ctx context.Context, actor, id string) error
	PlaceHoldCtx(ctx context.Context, actor, id, reason string) error
	ReleaseHoldCtx(ctx context.Context, actor, id string) error
	ProvenanceCtx(ctx context.Context, actor, id string) ([]provenance.Event, error)
	ProveVersionCtx(ctx context.Context, actor, id string, number uint64) (VersionProof, error)
	VersionCount(id string) (int, error)
	Export(actor, id string) (ExportBundle, error)
	Import(actor string, bundle ExportBundle, sourceSystem string) error
	ImportRestored(actor string, bundle ExportBundle, sourceSystem string) error
	RecordBackedUp(actor, id, destination string) error
	RecordMigratedOut(actor, id, targetSystem string) error

	// Whole-cluster operations (fanned out and merged).
	SearchCtx(ctx context.Context, actor, keyword string) ([]string, error)
	SearchAllCtx(ctx context.Context, actor string, keywords ...string) ([]string, error)
	BreakGlassCtx(ctx context.Context, actor, reason string, duration time.Duration) error
	AuditEventsCtx(ctx context.Context, actor string, q audit.Query) ([]audit.Event, error)
	AccountingOfDisclosuresCtx(ctx context.Context, actor, mrn string) ([]Disclosure, error)
	PatientRecordsCtx(ctx context.Context, actor, mrn string) ([]string, error)
	VerifyAll(rememberedHeads []merkle.SignedTreeHead, rememberedCheckpoints []audit.Checkpoint) (Report, error)
	SanitizeMedia(actor string) (int, int64, error)
	RecordIDs() []string
	ExpiredRecords() []string
}

var _ API = (*Cluster)(nil)

// Cluster hash-partitions records across independent vault shards behind
// the Vault API. See the package comment above for routing and merge rules.
type Cluster struct {
	shards []*Vault
	auth   *authz.Authorizer
	ret    *retention.Manager
	name   string
}

// OpenCluster creates or reopens a cluster of shards vaults over cfg.
//
// Layout: with one shard, cfg.Dir is used directly (the classic single-vault
// layout — a one-shard cluster is bit-compatible with a bare Vault). With
// more, each shard lives under cfg.Dir/shard-<i> and cfg.Dir/cluster.conf
// pins the shard count; reopening with a different count is an error, and
// shards == 0 adopts the manifest's count (1 when there is none).
//
// All shards share the master key, system name, clock, authorizer, and
// retention manager, so the cluster presents one signing identity and one
// policy surface while every shard keeps its own full storage stack.
func OpenCluster(cfg Config, shards int) (*Cluster, error) {
	if shards < 0 {
		return nil, fmt.Errorf("core: shard count %d is negative", shards)
	}
	if shards > MaxShards {
		return nil, fmt.Errorf("core: shard count %d exceeds the maximum of %d", shards, MaxShards)
	}
	fsys := cfg.FS
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	if cfg.Dir != "" {
		n, err := reconcileManifest(fsys, cfg.Dir, shards)
		if err != nil {
			return nil, err
		}
		shards = n
	} else if shards == 0 {
		shards = 1
	}

	if cfg.Name == "" {
		cfg.Name = "medvault"
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.System{}
	}
	cfg.Clock = clk
	now := func() time.Time { return clk.Now() }

	c := &Cluster{name: cfg.Name}
	// One authorizer and one retention manager for the whole cluster:
	// grants, roles, holds, and schedules are policy, not data, and must
	// not diverge between shards. Vault.Open applies cfg.Policies (or the
	// standard set) to the shared manager; SetPolicy is idempotent, so
	// every shard applying the same set is harmless.
	c.auth = authz.New(now)
	c.ret = retention.NewManager(clk)

	for i := 0; i < shards; i++ {
		scfg := cfg
		scfg.sharedAuth = c.auth
		scfg.sharedRet = c.ret
		if shards > 1 {
			scfg.shardTag = strconv.Itoa(i)
			if cfg.Dir != "" {
				scfg.Dir = filepath.Join(cfg.Dir, "shard-"+strconv.Itoa(i))
			}
		}
		v, err := open(scfg)
		if err != nil {
			for _, prev := range c.shards {
				_ = prev.Close()
			}
			return nil, fmt.Errorf("core: opening shard %d of %d: %w", i, shards, err)
		}
		c.shards = append(c.shards, v)
	}
	return c, nil
}

// reconcileManifest reads, checks, or creates the shard-count manifest and
// returns the effective shard count. requested == 0 adopts the existing
// layout (manifest count, or 1 when the directory has no manifest).
func reconcileManifest(fsys faultfs.FS, dir string, requested int) (int, error) {
	path := filepath.Join(dir, clusterManifest)
	data, err := fsys.ReadFile(path)
	switch {
	case err == nil:
		n, perr := parseManifest(data)
		if perr != nil {
			return 0, fmt.Errorf("core: %s: %w", path, perr)
		}
		if requested != 0 && requested != n {
			return 0, fmt.Errorf("core: %s pins %d shards but %d were requested; the shard count is part of the data layout and cannot change on reopen", path, n, requested)
		}
		return n, nil
	case errors.Is(err, fs.ErrNotExist):
		if requested == 0 {
			requested = 1
		}
		if requested == 1 {
			// Single-shard layouts stay manifest-free: a one-shard cluster
			// must be bit-compatible with a pre-cluster vault directory,
			// in both directions.
			return 1, nil
		}
		// Refuse to shard over an existing single-vault directory: the old
		// records would sit invisible next to empty shards.
		if _, serr := fsys.Stat(filepath.Join(dir, "meta.wal")); serr == nil {
			return 0, fmt.Errorf("core: %s holds a single-vault layout; it cannot be reopened with %d shards", dir, requested)
		}
		if err := fsys.MkdirAll(dir, 0o755); err != nil {
			return 0, fmt.Errorf("core: creating cluster directory: %w", err)
		}
		// The manifest is committed by write-tmp, sync, rename — the same
		// idiom the metadata snapshot uses: a power cut (or ENOSPC) at any
		// point during creation must leave either no manifest at all (the
		// next open recreates it) or the complete synced one, never a
		// present-but-empty file that poisons every later open.
		tmp := path + ".tmp"
		f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return 0, fmt.Errorf("core: writing %s: %w", path, err)
		}
		_, err = f.Write([]byte(fmt.Sprintf("shards %d\n", requested)))
		if err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			fsys.Remove(tmp)
			return 0, fmt.Errorf("core: writing %s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			fsys.Remove(tmp)
			return 0, fmt.Errorf("core: writing %s: %w", path, err)
		}
		if err := fsys.Rename(tmp, path); err != nil {
			fsys.Remove(tmp)
			return 0, fmt.Errorf("core: committing %s: %w", path, err)
		}
		return requested, nil
	default:
		return 0, fmt.Errorf("core: reading %s: %w", path, err)
	}
}

// parseManifest decodes a "shards N" manifest.
func parseManifest(data []byte) (int, error) {
	fields := strings.Fields(string(data))
	if len(fields) != 2 || fields[0] != "shards" {
		return 0, fmt.Errorf("malformed cluster manifest (want \"shards N\")")
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n < 1 || n > MaxShards {
		return 0, fmt.Errorf("malformed cluster manifest shard count %q", fields[1])
	}
	return n, nil
}

// NumShards returns the shard count.
func (c *Cluster) NumShards() int { return len(c.shards) }

// Shard returns shard i — the per-shard handle the simulator and tests use
// to address one shard's audit chain, tree head, and checkpoints directly.
func (c *Cluster) Shard(i int) *Vault { return c.shards[i] }

// shardFor routes a record ID.
func (c *Cluster) shardFor(id string) *Vault {
	return c.shards[ShardOf(id, len(c.shards))]
}

// single reports whether this is a pass-through one-shard cluster.
func (c *Cluster) single() bool { return len(c.shards) == 1 }

// fanOut runs fn on every shard concurrently and merges the per-shard
// errors deterministically: failures are reported in shard-index order,
// each tagged with its shard, and a healthy shard's success is never masked
// by a wedged sibling — every shard runs to completion.
func (c *Cluster) fanOut(fn func(i int, v *Vault) error) error {
	if c.single() {
		return fn(0, c.shards[0])
	}
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, v := range c.shards {
		wg.Add(1)
		go func(i int, v *Vault) {
			defer wg.Done()
			errs[i] = fn(i, v)
		}(i, v)
	}
	wg.Wait()
	var failed []error
	for i, err := range errs {
		if err != nil {
			failed = append(failed, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(failed...)
}

// --- identity and lifecycle ---

// Name returns the cluster's system name (shared by every shard).
func (c *Cluster) Name() string { return c.name }

// PublicKey returns the signing identity. Every shard derives its signer
// from the same master, so the cluster speaks with one key.
func (c *Cluster) PublicKey() vcrypto.PublicKey { return c.shards[0].PublicKey() }

// Sign signs data under the cluster identity.
func (c *Cluster) Sign(purpose string, data []byte) []byte { return c.shards[0].Sign(purpose, data) }

// Authz returns the shared authorizer.
func (c *Cluster) Authz() *authz.Authorizer { return c.auth }

// Retention returns the shared retention manager.
func (c *Cluster) Retention() *retention.Manager { return c.ret }

// Len sums live records across shards.
func (c *Cluster) Len() int {
	n := 0
	for _, v := range c.shards {
		n += v.Len()
	}
	return n
}

// StorageBytes sums storage across shards.
func (c *Cluster) StorageBytes() int64 {
	var n int64
	for _, v := range c.shards {
		n += v.StorageBytes()
	}
	return n
}

// Heads returns every shard's signed tree head, in shard order. Remember
// them off-system and hand each back to its shard's VerifyAll.
func (c *Cluster) Heads() []merkle.SignedTreeHead {
	out := make([]merkle.SignedTreeHead, len(c.shards))
	for i, v := range c.shards {
		out[i] = v.Head()
	}
	return out
}

// Health merges per-shard health: the cluster is Open/Durable only if every
// shard is, wedged if any shard is, and the counts are sums. InFlightOps is
// the process-wide gauge, not a sum — shards share it.
func (c *Cluster) Health() HealthStatus {
	if c.single() {
		return c.shards[0].Health()
	}
	var merged HealthStatus
	merged.Open = true
	merged.Durable = true
	for i, v := range c.shards {
		h := v.Health()
		merged.Open = merged.Open && h.Open
		merged.Durable = merged.Durable && h.Durable
		if h.WALWedged && !merged.WALWedged {
			merged.WALWedged = true
			merged.WALWedgeError = fmt.Sprintf("shard %d: %s", i, h.WALWedgeError)
		}
		merged.WALQueueDepth += h.WALQueueDepth
		merged.LiveRecords += h.LiveRecords
		merged.LastRecovery.Ran = merged.LastRecovery.Ran || h.LastRecovery.Ran
		merged.LastRecovery.SnapshotLoaded = merged.LastRecovery.SnapshotLoaded || h.LastRecovery.SnapshotLoaded
		merged.LastRecovery.WALEntries += h.LastRecovery.WALEntries
		merged.LastRecovery.RecordsLive += h.LastRecovery.RecordsLive
	}
	merged.InFlightOps = c.shards[0].Health().InFlightOps
	return merged
}

// ShardHealths returns each shard's own health report, in shard order —
// the per-shard detail behind the merged Health.
func (c *Cluster) ShardHealths() []HealthStatus {
	out := make([]HealthStatus, len(c.shards))
	for i, v := range c.shards {
		out[i] = v.Health()
	}
	return out
}

// Close closes every shard concurrently and reports failures in shard
// order. A failing shard never prevents its siblings from closing.
func (c *Cluster) Close() error {
	return c.fanOut(func(_ int, v *Vault) error { return v.Close() })
}

// --- routed single-record operations ---

// PutCtx routes to the record's shard. See Vault.PutCtx.
func (c *Cluster) PutCtx(ctx context.Context, actor string, rec ehr.Record) (Version, error) {
	return c.shardFor(rec.ID).PutCtx(ctx, actor, rec)
}

// GetCtx routes to the record's shard. See Vault.GetCtx.
func (c *Cluster) GetCtx(ctx context.Context, actor, id string) (ehr.Record, Version, error) {
	return c.shardFor(id).GetCtx(ctx, actor, id)
}

// GetVersionCtx routes to the record's shard. See Vault.GetVersionCtx.
func (c *Cluster) GetVersionCtx(ctx context.Context, actor, id string, number uint64) (ehr.Record, Version, error) {
	return c.shardFor(id).GetVersionCtx(ctx, actor, id, number)
}

// HistoryCtx routes to the record's shard. See Vault.HistoryCtx.
func (c *Cluster) HistoryCtx(ctx context.Context, actor, id string) ([]Version, error) {
	return c.shardFor(id).HistoryCtx(ctx, actor, id)
}

// CorrectCtx routes to the record's shard. See Vault.CorrectCtx.
func (c *Cluster) CorrectCtx(ctx context.Context, actor string, rec ehr.Record) (Version, error) {
	return c.shardFor(rec.ID).CorrectCtx(ctx, actor, rec)
}

// ShredCtx routes to the record's shard. See Vault.ShredCtx.
func (c *Cluster) ShredCtx(ctx context.Context, actor, id string) error {
	return c.shardFor(id).ShredCtx(ctx, actor, id)
}

// PlaceHoldCtx routes to the record's shard. See Vault.PlaceHoldCtx.
func (c *Cluster) PlaceHoldCtx(ctx context.Context, actor, id, reason string) error {
	return c.shardFor(id).PlaceHoldCtx(ctx, actor, id, reason)
}

// ReleaseHoldCtx routes to the record's shard. See Vault.ReleaseHoldCtx.
func (c *Cluster) ReleaseHoldCtx(ctx context.Context, actor, id string) error {
	return c.shardFor(id).ReleaseHoldCtx(ctx, actor, id)
}

// ProvenanceCtx routes to the record's shard. See Vault.ProvenanceCtx.
func (c *Cluster) ProvenanceCtx(ctx context.Context, actor, id string) ([]provenance.Event, error) {
	return c.shardFor(id).ProvenanceCtx(ctx, actor, id)
}

// ProveVersionCtx routes to the record's shard; the proof anchors to that
// shard's tree head.
func (c *Cluster) ProveVersionCtx(ctx context.Context, actor, id string, number uint64) (VersionProof, error) {
	return c.shardFor(id).ProveVersionCtx(ctx, actor, id, number)
}

// VersionCount routes to the record's shard. See Vault.VersionCount.
func (c *Cluster) VersionCount(id string) (int, error) { return c.shardFor(id).VersionCount(id) }

// Export routes to the record's shard. See Vault.Export.
func (c *Cluster) Export(actor, id string) (ExportBundle, error) {
	return c.shardFor(id).Export(actor, id)
}

// Import routes the bundle to its record's shard. See Vault.Import.
func (c *Cluster) Import(actor string, bundle ExportBundle, sourceSystem string) error {
	return c.shardFor(bundle.ID).Import(actor, bundle, sourceSystem)
}

// ImportRestored routes the bundle to its record's shard.
func (c *Cluster) ImportRestored(actor string, bundle ExportBundle, sourceSystem string) error {
	return c.shardFor(bundle.ID).ImportRestored(actor, bundle, sourceSystem)
}

// RecordBackedUp routes to the record's shard.
func (c *Cluster) RecordBackedUp(actor, id, destination string) error {
	return c.shardFor(id).RecordBackedUp(actor, id, destination)
}

// RecordMigratedOut routes to the record's shard.
func (c *Cluster) RecordMigratedOut(actor, id, targetSystem string) error {
	return c.shardFor(id).RecordMigratedOut(actor, id, targetSystem)
}

// --- fanned-out whole-cluster operations ---

// SearchCtx fans out to every shard and merges the sorted union. Each shard
// audits the search decision on its own chain — the shard that holds a hit
// must also hold the audit trail of the query that found it.
func (c *Cluster) SearchCtx(ctx context.Context, actor, keyword string) ([]string, error) {
	if c.single() {
		return c.shards[0].SearchCtx(ctx, actor, keyword)
	}
	return c.mergeSearch(func(v *Vault) ([]string, error) {
		return v.SearchCtx(ctx, actor, keyword)
	})
}

// SearchAllCtx fans out conjunctive search; see SearchCtx for audit
// semantics.
func (c *Cluster) SearchAllCtx(ctx context.Context, actor string, keywords ...string) ([]string, error) {
	if c.single() {
		return c.shards[0].SearchAllCtx(ctx, actor, keywords...)
	}
	return c.mergeSearch(func(v *Vault) ([]string, error) {
		return v.SearchAllCtx(ctx, actor, keywords...)
	})
}

// mergeSearch runs one search per shard and merges hits into one sorted
// list. Shards hold disjoint records, so the merge is a plain union. On a
// shared-authorizer denial every shard still audits its own denial before
// the error is returned.
func (c *Cluster) mergeSearch(search func(*Vault) ([]string, error)) ([]string, error) {
	res := make([][]string, len(c.shards))
	err := c.fanOut(func(i int, v *Vault) error {
		ids, err := search(v)
		res[i] = ids
		return err
	})
	if err != nil {
		return nil, err
	}
	var merged []string
	for _, ids := range res {
		merged = append(merged, ids...)
	}
	sort.Strings(merged)
	return merged, nil
}

// PatientRecordsCtx fans out and merges the sorted union (never audited,
// never errors — see Vault.PatientRecordsCtx).
func (c *Cluster) PatientRecordsCtx(ctx context.Context, actor, mrn string) ([]string, error) {
	if c.single() {
		return c.shards[0].PatientRecordsCtx(ctx, actor, mrn)
	}
	return c.mergeSearch(func(v *Vault) ([]string, error) {
		return v.PatientRecordsCtx(ctx, actor, mrn)
	})
}

// BreakGlassCtx issues the emergency grant and audits it on every shard, in
// shard order: the grant elevates access cluster-wide (the authorizer is
// shared), so every shard's chain must show it. Re-issuing on each shard is
// an idempotent overwrite of the same grant.
func (c *Cluster) BreakGlassCtx(ctx context.Context, actor, reason string, duration time.Duration) error {
	if c.single() {
		return c.shards[0].BreakGlassCtx(ctx, actor, reason, duration)
	}
	var firstErr error
	for _, v := range c.shards {
		if err := v.BreakGlassCtx(ctx, actor, reason, duration); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// AuditEventsCtx queries every shard — each shard audits the query decision
// on its own chain — and merges matching events chronologically: shard
// results are concatenated in shard order and stably sorted by timestamp, so
// same-instant events keep shard order. Seq numbers remain shard-local.
func (c *Cluster) AuditEventsCtx(ctx context.Context, actor string, q audit.Query) ([]audit.Event, error) {
	if c.single() {
		return c.shards[0].AuditEventsCtx(ctx, actor, q)
	}
	res := make([][]audit.Event, len(c.shards))
	var firstErr error
	for i, v := range c.shards {
		evs, err := v.AuditEventsCtx(ctx, actor, q)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		res[i] = evs
	}
	if firstErr != nil {
		return nil, firstErr
	}
	var merged []audit.Event
	for _, evs := range res {
		merged = append(merged, evs...)
	}
	sort.SliceStable(merged, func(i, j int) bool {
		return merged[i].Timestamp.Before(merged[j].Timestamp)
	})
	return merged, nil
}

// AccountingOfDisclosuresCtx fans the statutory accounting across shards:
// every shard audits the query decision (sequentially, in shard order),
// then each shard reconstructs the disclosures of the records it holds, and
// the per-shard ledgers are concatenated in shard order and stably sorted
// by timestamp — the same final ordering pass a single vault applies, so
// ties keep shard order deterministically.
func (c *Cluster) AccountingOfDisclosuresCtx(ctx context.Context, actor, mrn string) (_ []Disclosure, retErr error) {
	if c.single() {
		return c.shards[0].AccountingOfDisclosuresCtx(ctx, actor, mrn)
	}
	ctx, sp := obs.StartSpan(ctx, "core.disclosures")
	defer func() { sp.End(retErr) }()
	// Every shard audits the query decision before any denial is reported:
	// the accounting request itself is disclosable activity on every shard.
	var firstErr error
	for _, v := range c.shards {
		if err := v.disclosureQueryAudit(ctx, actor); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if mrn == "" {
		return nil, fmt.Errorf("core: empty MRN")
	}
	var out []Disclosure
	found := false
	for _, v := range c.shards {
		if err := v.gate.begin(); err != nil {
			return nil, err
		}
		ds, ok := v.disclosuresScan(mrn)
		v.gate.end()
		found = found || ok
		out = append(out, ds...)
	}
	if !found {
		return nil, fmt.Errorf("%w: no records for MRN %s", ErrNotFound, mrn)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Timestamp.Before(out[j].Timestamp) })
	return out, nil
}

// VerifyAll runs the full integrity sweep on every shard concurrently and
// sums the reports. A wedged or tampered shard fails the sweep with its
// shard index named, without masking its siblings — every shard is swept
// and every failure is reported, in shard order.
//
// Remembered heads and checkpoints are shard-local artifacts: with more
// than one shard, hand each back to its own shard via Shard(i).VerifyAll;
// passing them here is rejected rather than misverified.
func (c *Cluster) VerifyAll(rememberedHeads []merkle.SignedTreeHead, rememberedCheckpoints []audit.Checkpoint) (Report, error) {
	if c.single() {
		return c.shards[0].VerifyAll(rememberedHeads, rememberedCheckpoints)
	}
	if len(rememberedHeads) > 0 || len(rememberedCheckpoints) > 0 {
		return Report{}, fmt.Errorf("core: remembered heads and checkpoints are per-shard; verify them via Shard(i).VerifyAll")
	}
	reports := make([]Report, len(c.shards))
	err := c.fanOut(func(i int, v *Vault) error {
		rep, err := v.VerifyAll(nil, nil)
		reports[i] = rep
		return err
	})
	var total Report
	for _, rep := range reports {
		total.RecordsChecked += rep.RecordsChecked
		total.VersionsChecked += rep.VersionsChecked
		total.AuditEvents += rep.AuditEvents
		total.ProvenanceChains += rep.ProvenanceChains
		total.HeadsChecked += rep.HeadsChecked
		total.CheckpointsProven += rep.CheckpointsProven
	}
	return total, err
}

// SanitizeMedia sweeps every shard in shard order and sums the results.
func (c *Cluster) SanitizeMedia(actor string) (dropped int, reclaimed int64, err error) {
	if c.single() {
		return c.shards[0].SanitizeMedia(actor)
	}
	var failed []error
	for i, v := range c.shards {
		d, r, err := v.SanitizeMedia(actor)
		dropped += d
		reclaimed += r
		if err != nil {
			failed = append(failed, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return dropped, reclaimed, errors.Join(failed...)
}

// RecordIDs merges every shard's live record IDs into one sorted list.
func (c *Cluster) RecordIDs() []string {
	if c.single() {
		return c.shards[0].RecordIDs()
	}
	var out []string
	for _, v := range c.shards {
		out = append(out, v.RecordIDs()...)
	}
	sort.Strings(out)
	return out
}

// ExpiredRecords returns the cluster-wide disposition work list from the
// shared retention manager (already globally sorted).
func (c *Cluster) ExpiredRecords() []string { return c.ret.Expired() }
