package main

import (
	"bufio"
	"crypto/sha256"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// hostInfo describes the machine a result came from, so results from
// different hosts can be compared through the calibration numbers
// rather than by wall clock alone.
type hostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	// CalibrationMs is the median time of a fixed CPU kernel: SHA-256
	// over 4 MiB, five times.
	CalibrationMs float64 `json:"calibration_ms"`
	// FsyncProbeUs is the median time of one 4 KiB write plus fsync,
	// over 32 tries, in the benchmark's work directory.
	FsyncProbeUs float64 `json:"fsync_probe_us"`
	// StealRatio is the share of CPU time the hypervisor took from this
	// machine while the run went on (from /proc/stat; -1 when
	// unavailable). Runs with a high share ran on a contended host.
	StealRatio float64 `json:"steal_ratio"`
}

func probeHost(dir string) hostInfo {
	h := hostInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
	h.CalibrationMs = calibrate()
	h.FsyncProbeUs = fsyncProbe(dir)
	return h
}

// cpuTicks reads the aggregate CPU line of /proc/stat and returns the
// steal ticks and the total ticks.
func cpuTicks() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealSince returns the steal share of the CPU ticks since the
// reading (steal0, total0).
func stealSince(steal0, total0 uint64, ok0 bool) float64 {
	steal, total, ok := cpuTicks()
	if !ok || !ok0 || total <= total0 {
		return -1
	}
	return float64(steal-steal0) / float64(total-total0)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func calibrate() float64 {
	buf := make([]byte, 4<<20)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	var ms []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		sum := sha256.Sum256(buf)
		buf[0] = sum[0]
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return median(ms)
}

func fsyncProbe(dir string) float64 {
	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return -1
	}
	defer os.Remove(f.Name())
	defer f.Close()
	page := make([]byte, 4096)
	var us []float64
	for i := 0; i < 32; i++ {
		t0 := time.Now()
		if _, err := f.WriteAt(page, int64(i)*4096); err != nil {
			return -1
		}
		if err := f.Sync(); err != nil {
			return -1
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	return median(us)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
