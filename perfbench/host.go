package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// stats is a point-in-time reading of the process's resource use.
type stats struct {
	cpu      time.Duration // user + sys, all threads
	alloc    uint64        // cumulative heap bytes allocated
	mallocs  uint64
	gcCycles uint32
	gcCPU    float64 // seconds, the runtime's estimate
}

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func readStats() stats {
	var ru syscall.Rusage
	// RUSAGE_SELF cannot fail for the calling process.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(gcCPUSample)
	var gc float64
	if gcCPUSample[0].Value.Kind() == metrics.KindFloat64 {
		gc = gcCPUSample[0].Value.Float64()
	}
	return stats{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    ms.TotalAlloc,
		mallocs:  ms.Mallocs,
		gcCycles: ms.NumGC,
		gcCPU:    gc,
	}
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// host is the record printed with every result.
type host struct {
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	CPUModel     string `json:"cpu_model"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func hostRecord(commit, root string) host {
	return host{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		CPUModel:     cpuModel(),
		Commit:       commit,
		SourceSHA256: sourceDigest(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod file under root, so a
// result names the code it measured even where the checkout carries no
// version-control metadata.  Dot-directories (build output, VCS) are
// skipped.  An unreadable tree yields "".
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return ""
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			return ""
		}
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return ""
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
