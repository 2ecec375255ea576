package main

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"

	"medvault/internal/core"
	"medvault/internal/faultfs"
)

// script drives every FS and File method, logging each result, so a
// wrapped and an unwrapped filesystem can be compared call for call.
func script(fsys faultfs.FS) []string {
	var log []string
	note := func(what string, v ...any) { log = append(log, fmt.Sprint(append([]any{what}, v...)...)) }
	for _, d := range []string{"/v/blocks", "/v/audit", "/v/prov", "/v/flight", "/v/shard-1/blocks"} {
		note("mkdir", fsys.MkdirAll(d, 0o700))
	}
	for _, name := range []string{"/v/meta.wal", "/v/blocks/seg-1", "/v/audit/seg-1", "/v/prov/seg-1",
		"/v/flight/f-1", "/v/shard-1/blocks/seg-1"} {
		f, err := fsys.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
		note("open", name, err)
		if err != nil {
			continue
		}
		n, err := f.Write([]byte("durable-" + name))
		note("write", n, err)
		note("sync", f.Sync())
		n, err = f.Write([]byte("pending"))
		note("write", n, err)
		buf := make([]byte, 8)
		n, err = f.ReadAt(buf, 0)
		note("readat", n, err, string(buf[:n]))
		note("close", f.Close())
	}
	note("writefile", fsys.WriteFile("/v/meta.snap.tmp", []byte("snapshot"), 0o600))
	note("rename", fsys.Rename("/v/meta.snap.tmp", "/v/meta.snap"))
	data, err := fsys.ReadFile("/v/meta.snap")
	note("readfile", string(data), err)
	_, err = fsys.ReadFile("/v/missing")
	note("readfile-missing", errors.Is(err, os.ErrNotExist))
	_, err = fsys.OpenFile("/v/missing", os.O_RDONLY, 0)
	note("open-missing", errors.Is(err, os.ErrNotExist))
	note("truncate", fsys.Truncate("/v/meta.wal", 4))
	info, err := fsys.Stat("/v/meta.wal")
	note("stat", info.Size(), err)
	ents, err := fsys.ReadDir("/v")
	for _, e := range ents {
		note("entry", e.Name(), e.IsDir())
	}
	note("readdir", err)
	note("remove", fsys.Remove("/v/flight/f-1"))
	note("removeall", fsys.RemoveAll("/v/prov"))
	return log
}

func TestCountingFSForwardsEveryCall(t *testing.T) {
	direct, under := faultfs.NewMem(), faultfs.NewMem()
	cfs := newCountingFS(under, "/v")
	want, got := script(direct), script(cfs)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("results differ through the wrapper:\n got %q\nwant %q", got, want)
	}
	if !reflect.DeepEqual(direct.Dump(), under.Dump()) {
		t.Fatal("file contents differ through the wrapper")
	}
	// A power cut keeps only synced bytes: equal crash images prove every
	// Sync reached the medium.
	if !reflect.DeepEqual(direct.CrashImage(faultfs.KeepNone).Dump(), under.CrashImage(faultfs.KeepNone).Dump()) {
		t.Fatal("durable contents differ through the wrapper")
	}
	if _, ok := any(cfs).(core.TraceShipper); ok {
		t.Fatal("the wrapper must not ship traces")
	}
}

func TestCountingFSChargesEachDirectory(t *testing.T) {
	cfs := newCountingFS(faultfs.NewMem(), "/v")
	script(cfs)
	snap := cfs.snapshot()
	byName := map[string]devSnap{}
	for i, d := range deviceDirs {
		byName[d] = snap[i]
	}
	// blocks: the top-level and the shard-1 segment, two writes each.
	if b := byName["blocks"]; b.Writes != 4 || b.Fsyncs != 2 || b.Reads != 2 {
		t.Errorf("blocks = %+v, want 4 writes, 2 fsyncs, 2 reads", b)
	}
	for _, d := range []string{"wal", "audit", "prov", "flight"} {
		if c := byName[d]; c.Writes != 2 || c.Fsyncs != 1 || c.Reads != 1 || c.FsyncNanos <= 0 {
			t.Errorf("%s = %+v, want 2 writes, 1 timed fsync, 1 read", d, c)
		}
	}
	// meta: the snapshot's WriteFile and ReadFile plus the failed read.
	if m := byName["meta"]; m.Writes != 1 || m.WriteBytes != int64(len("snapshot")) || m.Reads != 2 {
		t.Errorf("meta = %+v, want 1 write of 8 bytes, 2 reads", m)
	}
	wal := byName["wal"]
	if want := int64(len("durable-/v/meta.wal") + len("pending")); wal.WriteBytes != want {
		t.Errorf("wal bytes = %d, want %d", wal.WriteBytes, want)
	}
}
