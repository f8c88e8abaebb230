package ftckpt

// Table tests for buildConfig: the typed facade must accept every
// supported enum value (and the legacy string literals, which still
// compile through the string-backed types), reject unknown values with a
// *ConfigError naming the Options field, forward the Storage/Heartbeat
// specs without touching the caller's, and reject Storage conflicts.

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"ftckpt/internal/failure"
	"ftckpt/internal/ftpm"
	"ftckpt/internal/sim"
)

func TestBuildConfigMatrix(t *testing.T) {
	platforms := []Platform{PlatformEthernet, PlatformMyrinetGM, PlatformMyrinetTCP, PlatformGrid}
	protocols := []Protocol{ProtocolNone, Pcl, Vcl, Mlog}
	for _, pl := range platforms {
		for _, pr := range protocols {
			o := Options{
				Workload: WorkloadBT, Class: ClassA,
				NP: 16, ProcsPerNode: 2,
				Protocol: pr, Interval: time.Second,
				Platform: pl, Seed: 1,
			}
			cfg, err := buildConfig(o)
			if err != nil {
				t.Fatalf("platform %q protocol %q: %v", pl, pr, err)
			}
			if got, want := cfg.Protocol, ftpm.Proto(pr); got != want {
				t.Errorf("platform %q protocol %q: cfg.Protocol = %q, want %q", pl, pr, got, want)
			}
			if pr != ProtocolNone && pl != PlatformGrid && cfg.Servers != 1 {
				t.Errorf("platform %q protocol %q: default Servers = %d, want 1", pl, pr, cfg.Servers)
			}
		}
	}
}

func TestBuildConfigWorkloads(t *testing.T) {
	for _, w := range []Workload{WorkloadBT, WorkloadCG, WorkloadMG, WorkloadLU, WorkloadCGReal, WorkloadEP, WorkloadJacobi} {
		o := Options{Workload: w, Class: ClassA, NP: 16, Seed: 1}
		if _, err := buildConfig(o); err != nil {
			t.Errorf("workload %q: %v", w, err)
		}
	}
	// The zero value defaults to BT / class B.
	if _, err := buildConfig(Options{NP: 16}); err != nil {
		t.Errorf("zero-value workload: %v", err)
	}
}

// TestBuildConfigLegacyLiterals pins the compatibility contract: the
// pre-facade string literals still compile and validate, because the enum
// types are string-backed.
func TestBuildConfigLegacyLiterals(t *testing.T) {
	o := Options{
		Workload: "cg", Class: "A", NP: 16, ProcsPerNode: 2,
		Protocol: "pcl", Interval: time.Second, Platform: "myrinet-tcp",
	}
	cfg, err := buildConfig(o)
	if err != nil {
		t.Fatalf("legacy literals: %v", err)
	}
	if cfg.Protocol != ftpm.ProtoPcl {
		t.Errorf("cfg.Protocol = %q, want %q", cfg.Protocol, ftpm.ProtoPcl)
	}
}

func TestBuildConfigErrors(t *testing.T) {
	servers2 := &StorageSpec{Levels: []LevelSpec{{Kind: LevelServers, Servers: 2}}}
	cases := []struct {
		name  string
		o     Options
		field string // the *ConfigError's Field
	}{
		{"np", Options{}, "Options.NP"},
		{"protocol", Options{NP: 4, Protocol: "tcp"}, "Options.Protocol"},
		{"platform", Options{NP: 4, Platform: "atm"}, "Options.Platform"},
		{"workload", Options{NP: 4, Workload: "ft"}, "Options.Workload"},
		{"class", Options{NP: 4, Workload: WorkloadBT, Class: "Z"}, "Options.Class"},
		{"recovery", Options{NP: 4, Recovery: "pray"}, "Options.Recovery"},
		{"spares", Options{NP: 4, Spares: -1}, "Options.Spares"},
		{"failure kind", Options{NP: 4, Failures: []Failure{KillRank(time.Second, 0), {At: time.Second, Kind: "rack"}}},
			"Options.Failures[1].Kind"},
		{"servers vs storage", Options{NP: 4, Protocol: Pcl, Interval: time.Second, Servers: 2, Storage: servers2},
			"Options.Servers"},
		{"spares on grid", Options{NP: 4, Protocol: Pcl, Interval: time.Second, Platform: PlatformGrid, Spares: 1},
			"Options.Spares"},
		{"storage on grid", Options{NP: 4, Protocol: Pcl, Interval: time.Second, Platform: PlatformGrid,
			Storage: &StorageSpec{Levels: []LevelSpec{{Kind: LevelBuffer}, {Kind: LevelServers, Servers: 2}}}},
			"Options.Storage"},
		{"np beyond grid", Options{NP: 1 << 20, Platform: PlatformGrid}, "Options.NP"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := buildConfig(tc.o)
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("got %v (%T), want a *ConfigError on %q", err, err, tc.field)
			}
			if ce.Field != tc.field {
				t.Errorf("Field = %q, want %q (%v)", ce.Field, tc.field, err)
			}
		})
	}
}

// TestBuildConfigSpecConversion pins how the storage spellings reach the
// runtime: Servers alone validates to the paper's one-level spec, a
// one-level Storage spec carries its replication knobs unchanged, the
// heartbeat spec is forwarded, and on the grid a servers-only spec is
// accepted with the layout's server count.
func TestBuildConfigSpecConversion(t *testing.T) {
	validate := func(o Options) ftpm.Config {
		t.Helper()
		cfg, err := buildConfig(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	cfg := validate(Options{
		NP: 4, Protocol: Pcl, Interval: time.Second, Servers: 3,
		Heartbeat: &HeartbeatSpec{Period: 10 * time.Millisecond, Timeout: 50 * time.Millisecond},
	})
	want := LevelSpec{Kind: LevelServers, Servers: 3, Replicas: 1, WriteQuorum: 1}
	if cfg.Servers != 3 || len(cfg.Storage.Levels) != 1 || cfg.Storage.Levels[0] != want {
		t.Errorf("shorthand: Servers = %d, Storage = %+v, want the one-level spec %+v", cfg.Servers, cfg.Storage, want)
	}
	if cfg.HeartbeatPeriod != 10*time.Millisecond || cfg.HeartbeatTimeout != 50*time.Millisecond {
		t.Errorf("heartbeat spec not forwarded: %+v", cfg)
	}

	want = LevelSpec{Kind: LevelServers, Servers: 3,
		Replicas: 2, WriteQuorum: 1, StoreRetries: 5, RetryBackoff: time.Millisecond}
	cfg = validate(Options{NP: 4, Protocol: Pcl, Interval: time.Second,
		Storage: &StorageSpec{Levels: []LevelSpec{want}}})
	if cfg.Servers != 3 || cfg.Storage.Levels[0] != want {
		t.Errorf("storage spec: Servers = %d, level = %+v, want %+v", cfg.Servers, cfg.Storage.Levels[0], want)
	}

	cfg = validate(Options{NP: 16, ProcsPerNode: 2, Protocol: Vcl, Interval: time.Second, Platform: PlatformGrid,
		Storage: &StorageSpec{Levels: []LevelSpec{{Kind: LevelServers, Servers: 1, Replicas: 2}}}})
	if srv := cfg.Storage.ServersLevel(); cfg.Servers != len(cfg.ServerNodes) || srv.Servers != cfg.Servers || srv.Replicas != 2 {
		t.Errorf("grid: Servers = %d for %d placed servers, level %+v", cfg.Servers, len(cfg.ServerNodes), *srv)
	}
}

// TestRunLeavesStorageSpecUntouched pins the deep copy: Run normalizes
// its own copy of the spec, so a caller's spec with zero-valued defaults
// comes back exactly as it went in.
func TestRunLeavesStorageSpecUntouched(t *testing.T) {
	sp := &StorageSpec{
		Levels: []LevelSpec{
			{Kind: LevelBuffer},
			{Kind: LevelServers, Servers: 2},
			{Kind: LevelPFS},
		},
		Incremental: true,
	}
	before := *sp
	before.Levels = append([]LevelSpec(nil), sp.Levels...)
	if _, err := Run(Options{Workload: WorkloadCGReal, NP: 4, Protocol: Pcl,
		Interval: 5 * time.Millisecond, Storage: sp, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*sp, before) {
		t.Errorf("Run changed the caller's spec:\n  before %+v\n  after  %+v", before, *sp)
	}
}

// TestBuildConfigStorageHierarchy checks the multi-level spec: the level
// knobs and planner knobs ride along and the PFS targets widen the
// topology.
func TestBuildConfigStorageHierarchy(t *testing.T) {
	cfg, err := buildConfig(Options{
		NP: 8, ProcsPerNode: 2, Protocol: Pcl, Interval: time.Second,
		Storage: &StorageSpec{
			Levels: []LevelSpec{
				{Kind: LevelBuffer, Bandwidth: 3e9, Latency: 100 * time.Microsecond, Capacity: 1 << 30, Retention: 2},
				{Kind: LevelServers, Servers: 2, Replicas: 2},
				{Kind: LevelPFS, Targets: 3, Stripes: 2, Bandwidth: 5e8},
			},
			Incremental: true, FullEvery: 3,
			Compress: true, CompressRatio: 0.5,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	sp := cfg.Storage
	if sp == nil || len(sp.Levels) != 3 {
		t.Fatalf("Storage = %+v", sp)
	}
	if !sp.Incremental || sp.FullEvery != 3 || !sp.Compress || sp.CompressRatio != 0.5 {
		t.Errorf("planner knobs lost: %+v", sp)
	}
	if got := sp.Levels[0].Latency; got != sim.Time(100*time.Microsecond) {
		t.Errorf("buffer latency = %v", got)
	}
	// Topology must fit compute + servers + service + PFS target nodes.
	computeNodes := 4
	need := computeNodes + 2 + 1 + 3
	if cfg.Topology.TotalNodes() < need {
		t.Errorf("topology has %d nodes, need %d with the PFS targets", cfg.Topology.TotalNodes(), need)
	}
}

func TestBuildConfigFailureConstructors(t *testing.T) {
	cfg, err := buildConfig(Options{
		NP: 8, Protocol: Pcl, Interval: time.Second,
		Failures: []Failure{
			KillRank(time.Second, 3),
			KillNode(2*time.Second, 1),
			KillServer(3*time.Second, 0),
			KillBuffer(4*time.Second, 2),
			KillPFS(5*time.Second, 1),
		},
	})
	if err != nil {
		t.Fatalf("constructors: %v", err)
	}
	if len(cfg.Failures) != 5 {
		t.Fatalf("got %d failure events, want 5", len(cfg.Failures))
	}
	if ev := cfg.Failures[0]; ev.Kind != failure.KindRank || ev.Rank != 3 || ev.At != time.Second {
		t.Errorf("KillRank event = %+v", ev)
	}
	if ev := cfg.Failures[1]; ev.Kind != failure.KindNode || ev.Node != 1 {
		t.Errorf("KillNode event = %+v", ev)
	}
	if ev := cfg.Failures[2]; ev.Kind != failure.KindServer || ev.Server != 0 {
		t.Errorf("KillServer event = %+v", ev)
	}
	if ev := cfg.Failures[3]; ev.Kind != failure.KindBuffer || ev.Node != 2 {
		t.Errorf("KillBuffer event = %+v", ev)
	}
	if ev := cfg.Failures[4]; ev.Kind != failure.KindPFS || ev.Server != 1 {
		t.Errorf("KillPFS event = %+v", ev)
	}
}

func TestBuildConfigVclProcessLimit(t *testing.T) {
	cfg, err := buildConfig(Options{NP: 8, Protocol: Vcl, Interval: time.Second, VclProcessLimit: -1})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.VclProcessLimit != -1 {
		t.Errorf("VclProcessLimit = %d, want -1", cfg.VclProcessLimit)
	}
}
