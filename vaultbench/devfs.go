package main

import (
	"io/fs"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"medvault/internal/faultfs"
)

// deviceDirs are the vault subdirectories the device counters are keyed by.
// Anything else under the vault (meta.snap, cluster.conf, postmortem/) is
// "meta".
var deviceDirs = []string{"wal", "blocks", "audit", "prov", "flight", "meta"}

// Indexes into deviceDirs.
const (
	dirBlocks = 1
	dirMeta   = 5
)

// devCounters is one directory's device traffic.
type devCounters struct {
	writes, writeBytes atomic.Int64
	fsyncs, fsyncNanos atomic.Int64
	reads, readBytes   atomic.Int64
}

// devSnap is a plain copy of devCounters, so phases can be diffed.
type devSnap struct {
	Writes, WriteBytes, Fsyncs, FsyncNanos, Reads, ReadBytes int64
}

func (s devSnap) sub(o devSnap) devSnap {
	return devSnap{s.Writes - o.Writes, s.WriteBytes - o.WriteBytes, s.Fsyncs - o.Fsyncs,
		s.FsyncNanos - o.FsyncNanos, s.Reads - o.Reads, s.ReadBytes - o.ReadBytes}
}

// countingFS is a faultfs.FS that forwards every call unchanged to inner and
// counts writes, bytes, fsyncs, fsync time and reads per vault
// subdirectory. It buffers nothing and adds no behaviour, so the vault
// above it does exactly the I/O it would do on inner.
type countingFS struct {
	inner faultfs.FS
	root  string
	dirs  [6]devCounters
}

func newCountingFS(inner faultfs.FS, root string) *countingFS {
	return &countingFS{inner: inner, root: filepath.Clean(root)}
}

// snapshot copies the counters of every directory.
func (c *countingFS) snapshot() [6]devSnap {
	var out [6]devSnap
	for i := range c.dirs {
		d := &c.dirs[i]
		out[i] = devSnap{d.writes.Load(), d.writeBytes.Load(), d.fsyncs.Load(),
			d.fsyncNanos.Load(), d.reads.Load(), d.readBytes.Load()}
	}
	return out
}

// classify maps a path under the vault root to its deviceDirs index. A
// multi-shard cluster nests each shard's layout under shard-<i>/.
func (c *countingFS) classify(name string) int {
	rel, err := filepath.Rel(c.root, filepath.Clean(name))
	if err != nil {
		return dirMeta
	}
	parts := strings.Split(filepath.ToSlash(rel), "/")
	if len(parts) > 1 && strings.HasPrefix(parts[0], "shard-") {
		parts = parts[1:]
	}
	first := parts[0]
	if strings.HasPrefix(first, "meta.wal") {
		return 0
	}
	for i, d := range deviceDirs[1:dirMeta] {
		if first == d && len(parts) > 1 {
			return i + 1
		}
	}
	return dirMeta
}

func (c *countingFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	f, err := c.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{inner: f, d: &c.dirs[c.classify(name)]}, nil
}

func (c *countingFS) ReadFile(name string) ([]byte, error) {
	data, err := c.inner.ReadFile(name)
	d := &c.dirs[c.classify(name)]
	d.reads.Add(1)
	d.readBytes.Add(int64(len(data)))
	return data, err
}

func (c *countingFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	d := &c.dirs[c.classify(name)]
	d.writes.Add(1)
	d.writeBytes.Add(int64(len(data)))
	return c.inner.WriteFile(name, data, perm)
}

func (c *countingFS) Rename(oldpath, newpath string) error { return c.inner.Rename(oldpath, newpath) }
func (c *countingFS) Remove(name string) error             { return c.inner.Remove(name) }
func (c *countingFS) RemoveAll(name string) error          { return c.inner.RemoveAll(name) }
func (c *countingFS) Truncate(name string, size int64) error {
	return c.inner.Truncate(name, size)
}
func (c *countingFS) MkdirAll(name string, perm fs.FileMode) error {
	return c.inner.MkdirAll(name, perm)
}
func (c *countingFS) ReadDir(name string) ([]fs.DirEntry, error) { return c.inner.ReadDir(name) }
func (c *countingFS) Stat(name string) (fs.FileInfo, error)      { return c.inner.Stat(name) }

// countingFile forwards to the wrapped handle and charges its directory.
type countingFile struct {
	inner faultfs.File
	d     *devCounters
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.inner.Write(p)
	f.d.writes.Add(1)
	f.d.writeBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.inner.ReadAt(p, off)
	f.d.reads.Add(1)
	f.d.readBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	start := time.Now()
	err := f.inner.Sync()
	f.d.fsyncNanos.Add(int64(time.Since(start)))
	f.d.fsyncs.Add(1)
	return err
}

func (f *countingFile) Close() error { return f.inner.Close() }
