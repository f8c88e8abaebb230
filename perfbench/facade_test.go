package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"
	"time"

	"ftckpt"
	"ftckpt/internal/ftpm"
)

// facadeOptions is the ftckpt.Options spelling of each workload the
// facade can express.  ulfm-jacobi128 has none: the facade sizes Jacobi
// for the recovery figure (n = 16·NP, 2000 iterations).
func facadeOptions(name string, seed int64) (ftckpt.Options, bool) {
	bt := func(proto ftckpt.Protocol, np int, interval time.Duration) ftckpt.Options {
		return ftckpt.Options{
			Workload:     ftckpt.WorkloadBT,
			Class:        ftckpt.ClassA,
			NP:           np,
			ProcsPerNode: 2,
			Protocol:     proto,
			Interval:     interval,
			Servers:      4,
			Seed:         seed,
		}
	}
	switch name {
	case "pcl-bt256":
		return bt(ftckpt.Pcl, 256, 2*time.Second), true
	case "mlog-bt64":
		return bt(ftckpt.Mlog, 64, 8*time.Second), true
	case "vcl-restart-traced":
		o := bt(ftckpt.Vcl, 144, time.Second)
		o.Servers = 0
		o.Storage = &ftckpt.StorageSpec{
			Levels: []ftckpt.LevelSpec{
				{Kind: ftckpt.LevelBuffer},
				{Kind: ftckpt.LevelServers, Servers: 4, Replicas: 2, WriteQuorum: 1},
			},
			Incremental: true,
			Compress:    true,
		}
		o.Failures = []ftckpt.Failure{ftckpt.KillRank(6*time.Second, pick(seed, 144))}
		o.Attribution = true
		return o, true
	}
	return ftckpt.Options{}, false
}

// reportView is the facade Report reduced to comparable values.
type reportView struct {
	Completion, LostWork               time.Duration
	Waves, LocalCheckpoints, Restarts  int
	Repairs, LoggedMessages            int
	ServerFailures, Failovers          int
	Messages                           int64
	PayloadMB, CheckpointMB, LoggedMB  float64
	Checksum                           float64
	Spread, Transfer, Cycle            time.Duration
	MetricsSHA, AttributionSHA, Chrome string
}

// TestWorkloadsMatchFacade pins every facade-expressible workload to the
// user-facing path: the ftpm.Config the benchmark builds must give the
// same report as ftckpt.Run on the equivalent Options.  The benchmark
// hands the program to ftpm unwrapped, because ftpm type-asserts it for
// partner snapshots and FT tuning.
func TestWorkloadsMatchFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three full simulations twice")
	}
	const seed = 3
	for _, w := range workloads {
		o, ok := facadeOptions(w.name, seed)
		if !ok {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			build, err := w.prepare(seed)
			if err != nil {
				t.Fatal(err)
			}
			var ex *exporter
			var cfg ftpm.Config
			if w.exports {
				ex = newExporter()
				cfg = build(ex.chrom)
			} else {
				cfg = build(nil)
			}
			job, err := ftpm.NewJob(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := job.Run()
			if err != nil {
				t.Fatal(err)
			}
			out, err := digest(res, job, ex)
			if err != nil {
				t.Fatal(err)
			}
			got := reportView{
				Completion:       res.Completion,
				LostWork:         res.LostWork,
				Waves:            res.WavesCommitted,
				LocalCheckpoints: res.LocalCkpts,
				Restarts:         res.Restarts,
				Repairs:          res.Repairs,
				LoggedMessages:   res.LoggedMsgs,
				ServerFailures:   res.ServerFailures,
				Failovers:        res.Failovers,
				Messages:         res.Messages,
				PayloadMB:        float64(res.PayloadBytes) / (1 << 20),
				CheckpointMB:     float64(res.CkptBytes) / (1 << 20),
				LoggedMB:         float64(res.LoggedBytes) / (1 << 20),
				Checksum:         checksum(job.Programs()[0]),
				Spread:           res.WaveBreakdown.MeanSpread,
				Transfer:         res.WaveBreakdown.MeanTransfer,
				Cycle:            res.WaveBreakdown.MeanCycle,
				MetricsSHA:       out["metrics_sha256"],
				AttributionSHA:   out["attribution_sha256"],
				Chrome:           out["chrome_sha256"],
			}

			var fex *exporter
			if w.exports {
				fex = newExporter()
				o.Sink = fex.chrom
			}
			rep, err := ftckpt.Run(o)
			if err != nil {
				t.Fatal(err)
			}
			want := reportView{
				Completion:       rep.Completion,
				LostWork:         rep.LostWork,
				Waves:            rep.Waves,
				LocalCheckpoints: rep.LocalCheckpoints,
				Restarts:         rep.Restarts,
				Repairs:          rep.Repairs,
				LoggedMessages:   rep.LoggedMessages,
				ServerFailures:   rep.ServerFailures,
				Failovers:        rep.Failovers,
				Messages:         rep.Messages,
				PayloadMB:        rep.PayloadMB,
				CheckpointMB:     rep.CheckpointMB,
				LoggedMB:         rep.LoggedMB,
				Checksum:         rep.Checksum,
				Spread:           rep.MeanWaveSpread,
				Transfer:         rep.MeanWaveTransfer,
				Cycle:            rep.MeanWaveCycle,
				MetricsSHA:       sha256Of(t, rep.Metrics.WriteJSON),
			}
			if w.exports {
				if err := fex.chrom.Close(); err != nil {
					t.Fatal(err)
				}
				want.Chrome = hex.EncodeToString(fex.sum.Sum(nil))
				want.AttributionSHA = sha256Of(t, rep.Attribution.WriteJSON)
			}
			if got != want {
				t.Errorf("benchmark config and facade disagree:\nbench  %+v\nfacade %+v", got, want)
			}
			if err := w.purpose(res); err != nil {
				t.Error(err)
			}
		})
	}
}

func sha256Of(t *testing.T, write func(io.Writer) error) string {
	t.Helper()
	h := sha256.New()
	if err := write(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}
