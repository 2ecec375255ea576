package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"medvault/internal/audit"
	"medvault/internal/faultfs"
	"medvault/internal/provenance"
)

// seedDurable writes a small history — puts and corrections, so audit,
// custody and WAL all have entries — to a durable cluster on mem and
// closes it cleanly.
func seedDurable(t *testing.T, mem *faultfs.Mem, shards, records int) {
	t.Helper()
	ctx := context.Background()
	c, vc, err := openTorture(mem, shards)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < records; i++ {
		id := fmt.Sprintf("seed-%d", i)
		if _, err := c.PutCtx(ctx, "dr-house", tortureRecord(id, 1, vc.Now())); err != nil {
			t.Fatalf("Put %s: %v", id, err)
		}
		if i%2 == 0 {
			if _, err := c.CorrectCtx(ctx, "dr-house", tortureRecord(id, 2, vc.Now())); err != nil {
				t.Fatalf("Correct %s: %v", id, err)
			}
		}
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// rewriteFrame applies mutate to the payload of the k-th blockstore frame
// in the segment at path and re-seals the frame's checksum, so the store
// accepts the frame and only the layer above can notice the change.
func rewriteFrame(t *testing.T, mem *faultfs.Mem, path string, k int, mutate func([]byte)) {
	t.Helper()
	const overhead = 9 // magic | u32 len | u32 crc32c
	data, err := mem.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for i := 0; ; i++ {
		if off+overhead > len(data) {
			t.Fatalf("%s has only %d frames", path, i)
		}
		n := int(binary.BigEndian.Uint32(data[off+1:]))
		if i == k {
			payload := data[off+overhead : off+overhead+n]
			mutate(payload)
			binary.BigEndian.PutUint32(data[off+5:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
			break
		}
		off += overhead + n
	}
	if err := mem.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
}

// handleFS counts the file handles opened through it that are still open.
type handleFS struct {
	faultfs.FS
	mu   sync.Mutex
	open map[string]int
}

func (h *handleFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	f, err := h.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	h.open[name]++
	h.mu.Unlock()
	return &countedFile{File: f, fs: h, name: name}, nil
}

func (h *handleFS) leaked() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []string
	for name, n := range h.open {
		if n != 0 {
			out = append(out, fmt.Sprintf("%s (%d)", name, n))
		}
	}
	sort.Strings(out)
	return out
}

type countedFile struct {
	faultfs.File
	fs     *handleFS
	name   string
	closed bool
}

func (f *countedFile) Close() error {
	if !f.closed {
		f.closed = true
		f.fs.mu.Lock()
		f.fs.open[f.name]--
		f.fs.mu.Unlock()
	}
	return f.File.Close()
}

// TestOpenFailureClosesHandles: a reopen that fails verification must not
// leak the stores it opened before failing — block, audit and custody
// segments, and the metadata WAL that recovery opens concurrently with
// the failing replays.
func TestOpenFailureClosesHandles(t *testing.T) {
	flipLast := func(p []byte) { p[len(p)-1] ^= 0x01 }
	cases := []struct {
		name  string
		edits map[string]int // segment path -> frame to corrupt
		want  error
	}{
		{"audit-mac-and-custody-signature", map[string]int{"vault/audit/seg-00000000.blk": 3, "vault/prov/seg-00000000.blk": 2}, audit.ErrBadMAC},
		{"custody-signature", map[string]int{"vault/prov/seg-00000000.blk": 2}, provenance.ErrBadSignature},
	}
	for _, tc := range cases {
		mem := faultfs.NewMem()
		seedDurable(t, mem, 1, 4)
		for path, k := range tc.edits {
			rewriteFrame(t, mem, path, k, flipLast)
		}
		hfs := &handleFS{FS: mem, open: make(map[string]int)}
		c, _, err := openTorture(hfs, 1)
		if err == nil {
			c.Close()
			t.Fatalf("%s: tampered vault opened", tc.name)
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: Open error %v, want class %v", tc.name, err, tc.want)
		}
		if len(hfs.open) == 0 {
			t.Fatalf("%s: Open opened no handles; the check proves nothing", tc.name)
		}
		if leaked := hfs.leaked(); len(leaked) > 0 {
			t.Errorf("%s: failed Open leaked handles: %v", tc.name, leaked)
		}
	}
}

// TestCloseFailureClosesHandles: a Close whose metadata snapshot hits
// ENOSPC still syncs and closes the WAL and the block, audit and custody
// stores, reports the ENOSPC, and skips the WAL checkpoint, so a reopen
// replays every acked write from the WAL.
func TestCloseFailureClosesHandles(t *testing.T) {
	mem := faultfs.NewMem()
	seedDurable(t, mem, 1, 4)
	faulty := faultfs.NewFaulty(mem, func(op faultfs.Op) *faultfs.Fault {
		if op.Kind == faultfs.OpWrite && op.Path == "vault/meta.snap.tmp" {
			return &faultfs.Fault{Err: faultfs.ErrNoSpace}
		}
		return nil
	})
	hfs := &handleFS{FS: faulty, open: make(map[string]int)}
	c, vc, err := openTorture(hfs, 1)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := c.PutCtx(context.Background(), "dr-house", tortureRecord("late", 1, vc.Now())); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := c.Close(); !errors.Is(err, faultfs.ErrNoSpace) {
		t.Fatalf("Close error %v, want class %v", err, faultfs.ErrNoSpace)
	}
	if len(hfs.open) == 0 {
		t.Fatal("Open opened no handles; the check proves nothing")
	}
	if leaked := hfs.leaked(); len(leaked) > 0 {
		t.Errorf("failed Close leaked handles: %v", leaked)
	}

	c, _, err = openTorture(mem, 1)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer c.Close()
	if n := c.Len(); n != 5 {
		t.Errorf("reopened vault holds %d records, want 5", n)
	}
	if _, err := c.VerifyAll(nil, nil); err != nil {
		t.Errorf("VerifyAll after reopen: %v", err)
	}
}

// fsOp is the part of a mutating fs op that defines the crash-injection
// point sequence.
type fsOp struct {
	Kind faultfs.OpKind
	Path string
}

// reopenOps reopens a copy of mem through a recording injector and returns
// the mutating ops Open issued, in order.
func reopenOps(t *testing.T, mem *faultfs.Mem, shards int) []fsOp {
	t.Helper()
	var ops []fsOp
	var recording atomic.Bool
	recording.Store(true)
	fsys := faultfs.NewFaulty(mem.Clone(), func(op faultfs.Op) *faultfs.Fault {
		if recording.Load() && op.Index >= 0 {
			ops = append(ops, fsOp{op.Kind, op.Path})
		}
		return nil
	})
	c, _, err := openTorture(fsys, shards)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	recording.Store(false)
	if _, err := c.VerifyAll(nil, nil); err != nil {
		t.Fatalf("VerifyAll after reopen: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return ops
}

// TestReopenMutatingOpOrderIsDeterministic: Open replays audit, custody and
// metadata concurrently, but only recovery may mutate the medium, so the
// sequence of mutating ops — the torture harness's injection points and the
// replication stream — must not depend on scheduling. Repeated reopens, and
// a reopen on a single P, must issue the identical sequence.
func TestReopenMutatingOpOrderIsDeterministic(t *testing.T) {
	for _, shards := range []int{1, 4} {
		mem := faultfs.NewMem()
		seedDurable(t, mem, shards, 12)
		var want []fsOp
		func() {
			prev := runtime.GOMAXPROCS(1)
			defer runtime.GOMAXPROCS(prev)
			want = reopenOps(t, mem, shards)
		}()
		if len(want) == 0 {
			t.Fatalf("%d shards: reopen issued no mutating ops", shards)
		}
		for _, procs := range []int{2, 4, 4, 4} {
			prev := runtime.GOMAXPROCS(procs)
			got := reopenOps(t, mem, shards)
			runtime.GOMAXPROCS(prev)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d shards, GOMAXPROCS=%d: reopen op sequence differs from the single-P one\n got %v\nwant %v", shards, procs, got, want)
			}
		}
	}
}

// TestConcurrentDurableReopen runs reopen → verify → write → close cycles
// on several durable vaults at once; under -race it checks the concurrent
// replays inside Open share nothing unsynchronized, within a vault or
// across vaults.
func TestConcurrentDurableReopen(t *testing.T) {
	const vaults, cycles = 3, 3
	var wg sync.WaitGroup
	errs := make(chan error, 3*vaults*cycles)
	for i := 0; i < vaults; i++ {
		mem := faultfs.NewMem()
		seedDurable(t, mem, 1+i%2, 6)
		wg.Add(1)
		go func(shards int) {
			defer wg.Done()
			for k := 0; k < cycles; k++ {
				c, vc, err := openTorture(mem, shards)
				if err != nil {
					errs <- err
					return
				}
				if _, err := c.VerifyAll(nil, nil); err != nil {
					errs <- err
				}
				if _, err := c.PutCtx(context.Background(), "dr-house", tortureRecord(fmt.Sprintf("cycle-%d", k), 1, vc.Now())); err != nil {
					errs <- err
				}
				if err := c.Close(); err != nil {
					errs <- err
					return
				}
			}
		}(1 + i%2)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
