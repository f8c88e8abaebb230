package main

import (
	"math"
	"os"
	"testing"
)

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		want  string
		stack []string // leaf first
	}{
		{"runtime_sched", []string{"runtime.unlock2", "runtime.chansend", "runtime.chansend1",
			"ftckpt/internal/sim.(*Proc).park", "ftckpt/internal/nas.(*BTModel).Step"}},
		{"runtime_sched", []string{"runtime.futex", "runtime.stopm", "runtime.findRunnable",
			"runtime.schedule", "runtime.park_m", "runtime.mcall"}},
		{"runtime_gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{"runtime_gc", []string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc",
			"runtime.mallocgc", "ftckpt/internal/mpi.EncodeF64s"}},
		{"runtime_gc", []string{"runtime.(*mspan).sweep", "runtime.sweepone", "runtime.bgsweep"}},
		// Allocation and copies are billed to the layer that asked.
		{"nas", []string{"runtime.memmove", "runtime.growslice",
			"ftckpt/internal/nas.(*ftEncoder).putF64", "ftckpt/internal/nas.(*Jacobi).Snapshot"}},
		{"mpi", []string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.makeslice",
			"ftckpt/internal/mpi.(*Engine).sendPayload"}},
		// Stdlib work goes to its innermost simulator caller.
		{"obs", []string{"crypto/sha256.block", "crypto/sha256.(*Digest).Write", "io.WriteString",
			"ftckpt/internal/obs.(*ChromeStreamSink).raw"}},
		{"obs", []string{"internal/runtime/maps.ctrlGroup.matchH2", "runtime.mapaccess2_faststr",
			"ftckpt/internal/obs.(*Metrics).Observe", "ftckpt/internal/mpi.(*Engine).recvMatch"}},
		{"proto", []string{"ftckpt/internal/core/pcl.(*Pcl).OnSend.func1", "ftckpt/internal/mpi.(*Engine).Send"}},
		{"proto", []string{"ftckpt/internal/core.(*Base).Mark"}},
		{"sim", []string{"ftckpt/internal/sim/placement.Block"}},
		{"sim", []string{"ftckpt/internal/sim.(*Kernel).siftDown[go.shape.*ftckpt/internal/mpi.Packet]"}},
		// Packages outside the named layers, the benchmark itself, and
		// bare runtime work that is neither GC nor handoff.
		{"other", []string{"ftckpt/internal/trace.(*Recorder).Commit", "ftckpt/internal/ftpm.(*Job).commitWave"}},
		{"other", []string{"runtime.nanotime1", "time.Now", "main.(*timedSink).Emit",
			"ftckpt/internal/obs.(*Hub).Emit"}},
		{"other", []string{"runtime._System"}},
	} {
		if got := classify(tc.stack); got != tc.want {
			t.Errorf("classify(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// TestBucketRecordedProfile decodes a CPU profile recorded from one
// traced pcl-bt256 run.  The expected counts were cross-checked by
// applying the same classification to `go tool pprof -traces` output.
func TestBucketRecordedProfile(t *testing.T) {
	raw, err := os.ReadFile("testdata/pcl-bt256.pprof")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	if err := bucketProfile(raw, counts); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"ckpt": 1, "ftpm": 3, "mpi": 32, "nas": 7, "obs": 4, "proto": 3,
		"runtime_gc": 33, "runtime_sched": 63, "sim": 64, "simnet": 17,
	}
	var total int64
	for _, l := range layers {
		if counts[l] != want[l] {
			t.Errorf("%s: %d samples, want %d", l, counts[l], want[l])
		}
		total += counts[l]
	}
	if len(counts) > len(layers) {
		t.Errorf("samples outside the known layers: %v", counts)
	}
	sum := 0.0
	for _, l := range layers {
		sum += float64(counts[l]) / float64(total)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parseProfile accepted a non-gzip input")
	}
	if err := fields([]byte{0x12, 0x05, 0x01}, func(int, int, uint64, []byte) error { return nil }); err == nil {
		t.Error("fields accepted a length-delimited field running past the end")
	}
}
