package main

import (
	"fmt"
	"time"

	"ftckpt/internal/ckpt"
	"ftckpt/internal/failure"
	"ftckpt/internal/ftpm"
	"ftckpt/internal/mpi"
	"ftckpt/internal/nas"
	"ftckpt/internal/obs"
	"ftckpt/internal/platform"
	"ftckpt/internal/sim"
)

// workload is one named benchmark input.  prepare turns the benchmark
// seed into a job builder; the program only ever sees the resulting
// ftpm.Config.  Builders run once per job, so every job gets fresh
// closures, a fresh storage spec and the sink it is handed.
type workload struct {
	name string
	// exports marks the workload that streams a Chrome trace and computes
	// the attribution, so its digest covers both.
	exports bool
	prepare func(seed int64) (builder, error)
	// purpose fails a run that did not exercise what the workload is
	// there for (a kill that caused no restart, a repair that fell back).
	purpose func(res ftpm.Result) error
}

// builder returns the job config for one run; sink is nil unless the
// workload exports a trace.
type builder func(sink obs.Sink) ftpm.Config

// workloads: why each is here is in README.md and BENCHMARK.json.
var workloads = []*workload{
	{
		name:    "pcl-bt256",
		prepare: func(seed int64) (builder, error) { return btJob(ftpm.ProtoPcl, 256, 2*time.Second, seed), nil },
		purpose: wantCounts(0, 0),
	},
	{
		name:    "mlog-bt64",
		prepare: func(seed int64) (builder, error) { return btJob(ftpm.ProtoMlog, 64, 8*time.Second, seed), nil },
		purpose: wantCounts(0, 0),
	},
	{
		name:    "ulfm-jacobi128",
		prepare: jacobiJob,
		purpose: wantCounts(0, 1),
	},
	{
		name:    "vcl-restart-traced",
		exports: true,
		prepare: func(seed int64) (builder, error) { return vclRestartJob(seed), nil },
		purpose: wantCounts(1, 0),
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

func wantCounts(restarts, repairs int) func(ftpm.Result) error {
	return func(res ftpm.Result) error {
		if res.Restarts != restarts || res.Repairs != repairs {
			return fmt.Errorf("got %d restarts and %d repairs, want %d and %d",
				res.Restarts, res.Repairs, restarts, repairs)
		}
		return nil
	}
}

// pick maps the seed to an index in [0, n) with a splitmix64 step, so
// the victim does not depend on the math/rand algorithm.
func pick(seed int64, n int) int {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(n))
}

// btJob is the BT.A model on two processes per node with four checkpoint
// servers: the bench-core matrix shape.
func btJob(proto ftpm.Proto, np int, interval sim.Time, seed int64) builder {
	class, err := nas.BTClass("A")
	if err != nil {
		panic(err) // class A is built in
	}
	const ppn, servers = 2, 4
	profile := platform.PclSock
	if proto != ftpm.ProtoPcl {
		// Vcl and mlog run through the MPICH-V daemon device.
		profile = platform.Vcl
	}
	return func(sink obs.Sink) ftpm.Config {
		return ftpm.Config{
			NP:           np,
			ProcsPerNode: ppn,
			Protocol:     proto,
			Interval:     interval,
			Servers:      servers,
			// compute nodes + servers + the service node.
			Topology: platform.EthernetCluster(np/ppn + servers + 1),
			Profile:  profile,
			NewProgram: func(rank, size int) mpi.Program {
				return nas.NewBTModel(class, rank, size)
			},
			Seed: seed,
			Sink: sink,
		}
	}
}

// vclRestartJob is Vcl on BT.A, NP=144, checkpointing every second
// through a node-local buffer and replicated servers with incremental,
// compressed images.  A seed-chosen rank dies at 6 s, so the run rolls
// back and restores images once; at this size Vcl logs no channel
// state, so nothing is replayed.  A rank kill, not a node kill: a node
// kill under a quorum-1 buffer loses undrained images by design and
// stops degraded.
func vclRestartJob(seed int64) builder {
	const np = 144
	bt := btJob(ftpm.ProtoVcl, np, time.Second, seed)
	victim := pick(seed, np)
	return func(sink obs.Sink) ftpm.Config {
		cfg := bt(sink)
		cfg.Servers = 0 // the servers level of the storage spec says it
		cfg.Storage = &ckpt.Spec{
			Levels: []ckpt.LevelSpec{
				{Kind: ckpt.LevelBuffer},
				{Kind: ckpt.LevelServers, Servers: 4, Replicas: 2, WriteQuorum: 1},
			},
			Incremental: true,
			Compress:    true,
		}
		cfg.Failures = failure.Plan{{At: 6 * time.Second, Rank: victim}}
		cfg.Attrib = true
		return cfg
	}
}

// jacobiJob is the bench-core repair point at NP=128: the real Jacobi
// kernel (n = 4·NP, 400 iterations, partner snapshots every 10) under
// Pcl, losing a seed-chosen node at half the failure-free completion
// and repairing in job onto one of two spares.
func jacobiJob(seed int64) (builder, error) {
	const np = 128
	base := func() ftpm.Config {
		return ftpm.Config{
			NP:       np,
			Protocol: ftpm.ProtoPcl,
			Interval: 50 * time.Millisecond,
			Servers:  4,
			// np compute nodes + 4 servers + service node + 2 spares.
			Topology: platform.EthernetCluster(np + 7),
			Profile:  platform.PclSock,
			NewProgram: func(rank, size int) mpi.Program {
				return nas.NewJacobi(rank, size, np*4, 400)
			},
			FTEvery:    10,
			Recovery:   ftpm.RecoveryULFM,
			NodeLoss:   true,
			SpareNodes: 2,
			Seed:       seed,
		}
	}
	// The failure-free completion anchors the kill mid-run.  Both runs
	// are deterministic, so the anchored schedule is too.
	probe, err := ftpm.Run(base())
	if err != nil {
		return nil, fmt.Errorf("failure-free probe: %w", err)
	}
	kill := failure.Event{At: probe.Completion / 2, Kind: failure.KindNode, Node: pick(seed, np)}
	return func(sink obs.Sink) ftpm.Config {
		cfg := base()
		cfg.Failures = failure.Plan{kill}
		cfg.Sink = sink
		return cfg
	}, nil
}

// checksum is the workload's verification value, as the facade reports it.
func checksum(p mpi.Program) float64 {
	switch w := p.(type) {
	case *nas.BTModel:
		return w.Checksum
	case *nas.Jacobi:
		return w.Residual
	default:
		return 0
	}
}
