package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// host describes the machine a run measured, so later runs can tell a
// drifting device from a code change.
type host struct {
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	FSType     string  `json:"fs_type"`
	FsyncP50   float64 `json:"fsync_4k_p50_ms"`
	FsyncP90   float64 `json:"fsync_4k_p90_ms"`
}

// fsyncProbes is the fixed size of the fsync-latency probe.
const fsyncProbes = 40

func fingerprint(dir string) (host, error) {
	h := host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		FSType:     fsType(dir),
	}
	path := filepath.Join(dir, "fsync-probe")
	defer os.Remove(path)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o600)
	if err != nil {
		return h, err
	}
	defer f.Close()
	buf := make([]byte, 4096)
	lat := make([]time.Duration, 0, fsyncProbes)
	for i := 0; i < fsyncProbes; i++ {
		buf[0] = byte(i)
		if _, err := f.WriteAt(buf, 0); err != nil {
			return h, err
		}
		start := time.Now()
		if err := f.Sync(); err != nil {
			return h, err
		}
		lat = append(lat, time.Since(start))
	}
	h.FsyncP50 = durQuantile(lat, 0.5, time.Millisecond)
	h.FsyncP90 = durQuantile(lat, 0.9, time.Millisecond)
	return h, f.Close()
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x2FC12FC1:
		return "zfs"
	}
	return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}

// cpuTicks reads the host's cumulative CPU ticks and the part of them
// stolen by the hypervisor; zeros where /proc/stat is unavailable.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
