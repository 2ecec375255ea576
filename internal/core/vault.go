// Package core implements MedVault, the hybrid compliance store this
// reproduction exists to build. The paper's conclusion calls for "a hybrid
// model suited for trustworthy regulatory-compliant health-care record
// storage" combining the strengths of the models it surveys; the Vault is
// that model:
//
//   - Write-once versioned records: corrections never overwrite — they
//     append a new version chained to its predecessor, so WORM-grade history
//     coexists with HIPAA's right to amend.
//   - Per-record envelope encryption with crypto-shredding for secure
//     deletion and media re-use safety.
//   - A Merkle commitment log with signed tree heads: every version is
//     committed at write time, and verification against any remembered head
//     exposes insider tampering, rollback, and history rewriting.
//   - An SSE index: keyword search without keyword leakage.
//   - A tamper-evident audit chain recording every access decision, allowed
//     or denied, and a signed chain-of-custody provenance graph.
//   - RBAC with minimum-necessary category scoping and audited break-glass.
//   - Retention schedules with legal holds; verified migration and backup
//     live in their own packages on top of the export API.
//
// A Vault is memory-backed by default; give Config.Dir to get durable
// file-backed storage with write-ahead-logged metadata and crash recovery.
package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"medvault/internal/audit"
	"medvault/internal/authz"
	"medvault/internal/blockstore"
	"medvault/internal/clock"
	"medvault/internal/ehr"
	"medvault/internal/faultfs"
	"medvault/internal/index"
	"medvault/internal/merkle"
	"medvault/internal/obs"
	"medvault/internal/provenance"
	"medvault/internal/retention"
	"medvault/internal/vcrypto"
	"medvault/internal/wal"
)

// Errors returned by the package.
var (
	// ErrNotFound indicates no record with the given ID.
	ErrNotFound = errors.New("core: record not found")
	// ErrExists indicates a Put of an already-existing record ID.
	ErrExists = errors.New("core: record already exists")
	// ErrDenied indicates the actor is not authorized for the operation.
	// The denial has already been written to the audit log.
	ErrDenied = errors.New("core: access denied")
	// ErrShredded indicates the record was securely deleted; its content is
	// unrecoverable by design.
	ErrShredded = errors.New("core: record was securely deleted")
	// ErrTampered indicates integrity verification failed.
	ErrTampered = errors.New("core: tampering detected")
	// ErrIdentityChanged indicates a correction that tries to alter the
	// record's identity (ID, MRN, or category).
	ErrIdentityChanged = errors.New("core: correction must not change record identity")
	// ErrClosed indicates use of a closed vault.
	ErrClosed = errors.New("core: vault closed")
	// ErrWedged is wal.ErrWedged re-exported, so layers above core (httpapi)
	// can classify "the WAL refused an fsync and the vault cannot durably
	// commit" — a retryable outage, not a client error — without importing
	// the wal package.
	ErrWedged = wal.ErrWedged
)

// Version describes one committed version of a record.
type Version struct {
	Number    uint64 // 1-based; 1 is the original, 2+ are corrections
	Author    string
	Timestamp time.Time
	Ref       blockstore.Ref // location of the ciphertext
	CtHash    [32]byte       // SHA-256 of the ciphertext, Merkle-committed
	LeafIndex uint64         // position in the commitment log
}

// recordState is the in-memory metadata for one record. Field protection:
// category, mrn, and created are immutable after the state is published in
// the registry; versions is guarded by the record's lock stripe; shredded is
// atomic so registry scans (Search, Len, PatientRecords) can read it without
// taking the stripe; sanitized only changes under the exclusive gate.
type recordState struct {
	category  ehr.Category
	mrn       string    // patient identifier, for accounting of disclosures
	created   time.Time // record's own creation date; starts retention
	versions  []Version
	shredded  atomic.Bool
	sanitized bool // shredded AND ciphertext removed from media
}

// Config configures a Vault.
type Config struct {
	// Name identifies this vault in provenance custody chains.
	Name string
	// Master is the root secret. Everything key-like (DEK wrapping, index
	// tokens, audit MAC, signing identity) derives from it.
	Master vcrypto.Key
	// Clock supplies time; nil means the system clock.
	Clock clock.Clock
	// Policies are retention schedules; empty means StandardPolicies.
	Policies []retention.Policy
	// Dir, when non-empty, makes the vault durable: ciphertext, audit, and
	// provenance go to segment files under Dir, and record metadata is
	// write-ahead logged and snapshotted for crash recovery.
	Dir string
	// FS is the filesystem durable state is written through; nil means the
	// real one. The crash-recovery torture harness injects faultfs.Mem (with
	// a fault wrapper) here to simulate power cuts and media faults.
	FS faultfs.FS
	// AuditCheckpointInterval is the automatic audit checkpoint cadence in
	// events (0 disables automatic checkpoints).
	AuditCheckpointInterval int

	// Flight is the in-memory flight recorder operations report to; nil
	// selects the process-wide obs.DefaultFlight. Durable vaults also
	// checkpoint the ring into crash-decodable segments under Dir/flight.
	Flight *obs.Flight

	// Read-path cache sizing. For each knob, zero selects the default and a
	// negative value disables that cache layer. See DESIGN.md "Read-path
	// caching" for the layers and their invalidation rules.
	//
	// DEKCacheEntries bounds the plaintext-DEK cache inside the key store
	// (default vcrypto.DefaultDEKCacheCap entries).
	DEKCacheEntries int
	// BlockCacheBytes bounds the verified-ciphertext block cache
	// (default DefaultBlockCacheBytes).
	BlockCacheBytes int64
	// NegCacheEntries bounds the negative-lookup (known-missing ID) cache
	// (default DefaultNegCacheEntries).
	NegCacheEntries int

	// Cluster plumbing, set only by OpenCluster (same package): shards share
	// one authorizer and one retention manager so policy state never
	// diverges, and a non-empty shardTag labels the shard's metrics and
	// spans. All zero for a standalone vault.
	sharedAuth *authz.Authorizer
	sharedRet  *retention.Manager
	shardTag   string
}

// Vault is the hybrid compliance store. Locking follows the discipline
// documented in locks.go: gate → stripe → commitMu → leaf locks.
type Vault struct {
	gate     opGate       // open/close lifecycle; ops hold it shared
	stripes  lockStripes  // per-record serialization
	commitMu sync.Mutex   // sequences {WAL enqueue, Merkle append} pairs
	regMu    sync.RWMutex // guards the records map itself (a leaf lock)

	name   string
	clk    clock.Clock
	signer *vcrypto.Signer
	keys   *vcrypto.KeyStore
	blocks blockstore.Store
	log    *merkle.Log
	idx    *index.SSE
	aud    *audit.Log
	prov   *provenance.Tracker
	auth   *authz.Authorizer
	ret    *retention.Manager

	bcache      *blockCache // verified ciphertext blocks, keyed by Ref
	neg         *negCache   // record IDs known not to exist
	dekCacheCap int         // effective DEK-cache bound, reapplied on snapshot load

	records  map[string]*recordState
	leafSeq  atomic.Uint64 // total versions committed (== Merkle log size)
	metaWAL  *wal.Log
	dir      string
	fs       faultfs.FS
	masterFP string       // master key fingerprint, for manifests
	recovery RecoveryInfo // what the last Open rebuilt (durable vaults)
	shard    string       // shard index label when part of a >1-shard Cluster

	flight *obs.Flight     // in-memory ring ops report to (never nil)
	fsink  *obs.FlightSink // durable segment sink under dir/flight; may be nil

	// auditStore and provStore are retained so Close can release their
	// file handles (the audit and provenance logs do not own closing them).
	auditStore, provStore blockstore.Store
}

// open creates or reopens one vault — a shard. OpenCluster is the public
// constructor; a 1-shard cluster is the single-vault deployment.
func open(cfg Config) (*Vault, error) {
	if cfg.Name == "" {
		cfg.Name = "medvault"
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.System{}
	}
	signer := vcrypto.SignerFromSeed(vcrypto.DeriveKey(cfg.Master, "vault/signer"))
	now := func() time.Time { return clk.Now() }
	fsys := cfg.FS
	if fsys == nil {
		fsys = faultfs.OS{}
	}

	dekCap := cacheCap(cfg.DEKCacheEntries, vcrypto.DefaultDEKCacheCap)
	auth := cfg.sharedAuth
	if auth == nil {
		auth = authz.New(now)
	}
	v := &Vault{
		name:        cfg.Name,
		clk:         clk,
		signer:      signer,
		keys:        vcrypto.NewKeyStoreCached(vcrypto.DeriveKey(cfg.Master, "vault/kek"), dekCap),
		idx:         index.NewSSE(vcrypto.DeriveKey(cfg.Master, "vault/index")),
		auth:        auth,
		bcache:      newBlockCache(cacheCap(cfg.BlockCacheBytes, int64(DefaultBlockCacheBytes)), cfg.shardTag),
		neg:         newNegCache(cacheCap(cfg.NegCacheEntries, DefaultNegCacheEntries), cfg.shardTag),
		dekCacheCap: dekCap,
		records:     make(map[string]*recordState),
		dir:         cfg.Dir,
		fs:          fsys,
		masterFP:    cfg.Master.Fingerprint(),
		shard:       cfg.shardTag,
		flight:      cfg.Flight,
	}
	if v.flight == nil {
		v.flight = obs.DefaultFlight
	}

	pols := cfg.Policies
	if len(pols) == 0 {
		pols = retention.StandardPolicies()
	}
	v.ret = cfg.sharedRet
	if v.ret == nil {
		v.ret = retention.NewManager(clk)
	}
	// SetPolicy is idempotent, so shards of a cluster re-applying the same
	// set to the shared manager is harmless.
	for _, p := range pols {
		v.ret.SetPolicy(p)
	}

	var blockSt, auditSt, provSt blockstore.Store
	if cfg.Dir == "" {
		blockSt = blockstore.NewMemory(0)
		auditSt = blockstore.NewMemory(0)
		provSt = blockstore.NewMemory(0)
	} else {
		var err error
		if blockSt, err = blockstore.OpenFileFS(fsys, filepath.Join(cfg.Dir, "blocks"), 0); err != nil {
			return nil, fmt.Errorf("core: opening block store: %w", err)
		}
		if auditSt, err = blockstore.OpenFileFS(fsys, filepath.Join(cfg.Dir, "audit"), 0); err != nil {
			_ = blockSt.Close()
			return nil, fmt.Errorf("core: opening audit store: %w", err)
		}
		if provSt, err = blockstore.OpenFileFS(fsys, filepath.Join(cfg.Dir, "prov"), 0); err != nil {
			_ = blockSt.Close()
			_ = auditSt.Close()
			return nil, fmt.Errorf("core: opening provenance store: %w", err)
		}
	}
	v.blocks = blockSt
	v.auditStore = auditSt
	v.provStore = provSt
	v.log = merkle.NewLog(signer, now)

	if err := v.replay(cfg, now); err != nil {
		if v.metaWAL != nil {
			_ = v.metaWAL.Close()
		}
		_ = blockSt.Close()
		_ = auditSt.Close()
		_ = provSt.Close()
		return nil, err
	}

	if cfg.Dir != "" {
		// The flight sink is best-effort by design: a vault that cannot
		// persist observability events still serves records. Segments go
		// through v.fs — the same seam the vault's own data uses — so the
		// torture harness sees them and a replicating primary ships them.
		if sink, err := obs.OpenFlightSink(fsys, filepath.Join(cfg.Dir, "flight")); err == nil {
			v.fsink = sink
		}
	}
	return v, nil
}

// replay rebuilds the vault's state from its stores. The three replays are
// independent, so they run concurrently: the audit chain (every MAC) and
// the custody chains (every signature, itself spread over all cores) on
// their own goroutines, and — for a durable vault — metadata recovery on
// the caller's. The audit and custody replays only read, so recover stays
// the only code issuing mutating fs ops during Open, and the sequence of
// those ops (the crash-injection points, the replication stream) is the
// same as when the replays ran one after another. Errors are reported in
// that old order: audit, then custody, then recovery.
func (v *Vault) replay(cfg Config, now func() time.Time) error {
	var (
		wg              sync.WaitGroup
		aud             *audit.Log
		prov            *provenance.Tracker
		audErr, provErr error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		aud, audErr = audit.Open(audit.Config{
			Store:              v.auditStore,
			MACKey:             vcrypto.DeriveKey(cfg.Master, "vault/audit-mac"),
			Signer:             v.signer,
			Now:                now,
			CheckpointInterval: cfg.AuditCheckpointInterval,
		})
	}()
	go func() {
		defer wg.Done()
		prov, provErr = provenance.Open(provenance.Config{
			Store:  v.provStore,
			Signer: v.signer,
			System: cfg.Name,
			Now:    now,
		})
	}()
	var recErr error
	if cfg.Dir != "" {
		recErr = v.recover(cfg.Master)
	}
	wg.Wait()
	for _, err := range []error{audErr, provErr, recErr} {
		if err != nil {
			return err
		}
	}
	v.aud, v.prov = aud, prov
	// The live-records gauge is process-local; account for what recovery
	// just rebuilt so /metrics is truthful from the first scrape.
	metLiveRecords.Add(float64(v.recovery.RecordsLive))
	return nil
}

// RecoveryInfo describes what the last Open of a durable vault rebuilt.
// Memory-backed vaults never run recovery, so Ran stays false.
type RecoveryInfo struct {
	Ran            bool // a durable Open executed the recovery path
	SnapshotLoaded bool // a metadata snapshot existed and was restored
	WALEntries     int  // WAL entries replayed on top of the snapshot
	RecordsLive    int  // live records immediately after recovery
}

// recover loads the metadata snapshot and replays the WAL, rebuilding the
// records table, key store, Merkle log, and index.
func (v *Vault) recover(master vcrypto.Key) error {
	v.recovery.Ran = true
	snapPath := filepath.Join(v.dir, "meta.snap")
	if err := v.loadSnapshot(master, snapPath); err != nil {
		return err
	}
	walPath := filepath.Join(v.dir, "meta.wal")
	w, err := wal.OpenFS(v.fs, walPath, func(e wal.Entry) error {
		v.recovery.WALEntries++
		return v.applyWALEntry(e.Data)
	})
	if err != nil {
		return fmt.Errorf("core: recovering metadata WAL: %w", err)
	}
	v.metaWAL = w
	v.recovery.RecordsLive = v.Len()
	return nil
}

// HealthStatus is a point-in-time report of vault liveness for /healthz.
// A vault is serving when Open is true and WALWedged is false.
type HealthStatus struct {
	Open          bool         // admitting operations (Close has not run)
	Durable       bool         // file-backed with a metadata WAL
	WALWedged     bool         // the metadata WAL refused an fsync and halted
	WALWedgeError string       // the wedging error, when WALWedged
	WALQueueDepth int          // group-commit waiters not yet fsynced
	InFlightOps   int          // vault operations currently executing
	LiveRecords   int          // non-shredded records
	LastRecovery  RecoveryInfo // what the last durable Open rebuilt
}

// Health reports the vault's current liveness. It takes no vault locks
// beyond the registry read lock, so it answers even while Close is draining
// or the WAL is wedged — exactly the situations a health probe exists for.
func (v *Vault) Health() HealthStatus {
	h := HealthStatus{
		Open:         !v.gate.isShut(),
		Durable:      v.metaWAL != nil,
		InFlightOps:  int(metInflightOps.Value()),
		LiveRecords:  v.Len(),
		LastRecovery: v.recovery,
	}
	if v.metaWAL != nil {
		if err := v.metaWAL.Wedged(); err != nil {
			h.WALWedged = true
			h.WALWedgeError = err.Error()
		}
		h.WALQueueDepth = v.metaWAL.QueueDepth()
	}
	return h
}

// Authz returns the vault's authorizer for role and principal management.
func (v *Vault) Authz() *authz.Authorizer { return v.auth }

// Retention returns the retention manager (legal holds, schedules).
func (v *Vault) Retention() *retention.Manager { return v.ret }

// Name returns the vault's system name.
func (v *Vault) Name() string { return v.name }

// PublicKey returns the vault's signing identity.
func (v *Vault) PublicKey() vcrypto.PublicKey { return v.signer.Public() }

// Head returns the current signed Merkle tree head. Store it off-system;
// pass it back to VerifyAll to detect history rewriting.
func (v *Vault) Head() merkle.SignedTreeHead { return v.log.Head() }

// Len returns the number of live (non-shredded) records.
func (v *Vault) Len() int {
	v.regMu.RLock()
	defer v.regMu.RUnlock()
	n := 0
	for _, st := range v.records {
		if !st.shredded.Load() {
			n++
		}
	}
	return n
}

// StorageBytes reports the bytes the vault stores for its records — the
// cost-experiment accounting (E9): the ciphertext, the audit and custody
// logs, the wrapped-DEK keystore, the Merkle leaf hashes and the index's
// stored form.
func (v *Vault) StorageBytes() int64 {
	return v.blocks.StorageBytes() + v.auditStore.StorageBytes() + v.provStore.StorageBytes() +
		int64(len(v.keys.Snapshot())) + int64(v.log.Size())*merkle.HashSize +
		int64(v.idx.StorageBytes())
}

// Close flushes state and releases resources. For durable vaults it writes
// a metadata snapshot and checkpoints the WAL, so the next Open is fast.
//
// Close first drains: it waits for every in-flight operation to finish (the
// op gate) before releasing anything, so an operation admitted before Close
// always completes against an open vault, and an operation arriving after
// gets ErrClosed — never a half-closed store.
//
// A failure does not stop the teardown: every store is still synced and
// closed, so no handle outlives the vault, and the failures come back joined,
// the first one first.
func (v *Vault) Close() error {
	if !v.gate.shut() {
		return nil
	}
	defer v.gate.endExclusive()
	// Zeroize every cached plaintext DEK before releasing anything: key
	// material must not outlive the vault's lifecycle. The block and
	// negative caches go too — a later reopen starts cold.
	v.keys.Purge()
	v.bcache.purge()
	v.neg.purge()
	if v.fsink != nil {
		v.fsink.Close() // best-effort; flight loss never fails a Close
	}
	var errs []error
	if v.dir != "" {
		// The checkpoint empties the WAL, so it runs only after a snapshot
		// holding every entry it drops was written.
		err := v.writeSnapshotLocked()
		if err == nil {
			err = v.metaWAL.Checkpoint()
		}
		errs = append(errs, err, v.metaWAL.Close())
	}
	for _, st := range []blockstore.Store{v.blocks, v.auditStore, v.provStore} {
		if err := st.Sync(); err != nil && !errors.Is(err, blockstore.ErrClosed) {
			errs = append(errs, err)
		}
		errs = append(errs, st.Close())
	}
	return errors.Join(errs...)
}

// now returns the current vault time in UTC.
func (v *Vault) now() time.Time { return v.clk.Now().UTC() }
