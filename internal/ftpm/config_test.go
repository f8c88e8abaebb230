package ftpm

// Validation tests for the storage spec: every rejection must surface as
// a *ConfigError naming the offending (possibly nested) field, a bare
// server count must become the one-level default spec, and a valid spec
// must normalize idempotently.

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"ftckpt/internal/ckpt"
)

// storageCfg returns a valid three-level config the rejection cases
// mutate: 4 ranks, buffer + 2 replicated servers + 2 PFS targets.
func storageCfg() Config {
	cfg := baseCfg(4)
	cfg.Protocol = ProtoPcl
	cfg.Interval = 10 * time.Millisecond
	cfg.Servers = 0
	cfg.Storage = &ckpt.Spec{Levels: []ckpt.LevelSpec{
		{Kind: ckpt.LevelBuffer},
		{Kind: ckpt.LevelServers, Servers: 2},
		{Kind: ckpt.LevelPFS, Targets: 2, Stripes: 2},
	}}
	cfg.Topology = topoN(12) // 4 compute + 2 servers + 1 service + 2 PFS
	return cfg
}

func TestValidateStorageRejections(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(*Config)
		field string
	}{
		{"empty levels", func(c *Config) { c.Storage.Levels = nil }, "Storage.Levels"},
		{"flat servers", func(c *Config) { c.Servers = 3 }, "Servers"},
		{"server nodes", func(c *Config) { c.ServerNodes = []int{1, 2} }, "ServerNodes"},
		{"buffer not first", func(c *Config) {
			c.Storage.Levels[0], c.Storage.Levels[1] = c.Storage.Levels[1], c.Storage.Levels[0]
		}, "Storage.Levels[1].Kind"},
		{"buffer bandwidth", func(c *Config) { c.Storage.Levels[0].Bandwidth = -1 }, "Storage.Levels[0].Bandwidth"},
		{"buffer latency", func(c *Config) { c.Storage.Levels[0].Latency = -1 }, "Storage.Levels[0].Latency"},
		{"buffer capacity", func(c *Config) { c.Storage.Levels[0].Capacity = -1 }, "Storage.Levels[0].Capacity"},
		{"buffer retention", func(c *Config) { c.Storage.Levels[0].Retention = -1 }, "Storage.Levels[0].Retention"},
		{"duplicate servers", func(c *Config) {
			c.Storage.Levels = []ckpt.LevelSpec{
				{Kind: ckpt.LevelBuffer},
				{Kind: ckpt.LevelServers, Servers: 2},
				{Kind: ckpt.LevelServers, Servers: 1},
			}
		}, "Storage.Levels[2].Kind"},
		{"servers zero", func(c *Config) { c.Storage.Levels[1].Servers = 0 }, "Storage.Levels[1].Servers"},
		{"servers replicas", func(c *Config) { c.Storage.Levels[1].Replicas = -1 }, "Storage.Levels[1].Replicas"},
		{"servers quorum", func(c *Config) { c.Storage.Levels[1].WriteQuorum = -1 }, "Storage.Levels[1].WriteQuorum"},
		{"servers retries", func(c *Config) { c.Storage.Levels[1].StoreRetries = -1 }, "Storage.Levels[1].StoreRetries"},
		{"servers backoff", func(c *Config) { c.Storage.Levels[1].RetryBackoff = -1 }, "Storage.Levels[1].RetryBackoff"},
		{"replicas exceed servers", func(c *Config) { c.Storage.Levels[1].Replicas = 3 }, "Storage.Levels[1].Replicas"},
		{"quorum exceeds replicas", func(c *Config) {
			c.Storage.Levels[1].Replicas = 2
			c.Storage.Levels[1].WriteQuorum = 3
		}, "Storage.Levels[1].WriteQuorum"},
		{"pfs not last", func(c *Config) {
			c.Storage.Levels = []ckpt.LevelSpec{
				{Kind: ckpt.LevelBuffer},
				{Kind: ckpt.LevelPFS, Targets: 2, Stripes: 2},
				{Kind: ckpt.LevelServers, Servers: 2},
			}
		}, "Storage.Levels[1].Kind"},
		{"pfs targets", func(c *Config) { c.Storage.Levels[2].Targets = -1 }, "Storage.Levels[2].Targets"},
		{"pfs stripes", func(c *Config) { c.Storage.Levels[2].Stripes = -1 }, "Storage.Levels[2].Stripes"},
		{"pfs bandwidth", func(c *Config) { c.Storage.Levels[2].Bandwidth = -1 }, "Storage.Levels[2].Bandwidth"},
		{"unknown kind", func(c *Config) {
			c.Storage.Levels = []ckpt.LevelSpec{
				{Kind: ckpt.LevelBuffer},
				{Kind: ckpt.LevelServers, Servers: 2},
				{Kind: "tape"},
			}
		}, "Storage.Levels[2].Kind"},
		{"missing servers level", func(c *Config) {
			c.Storage.Levels = []ckpt.LevelSpec{{Kind: ckpt.LevelBuffer}}
		}, "Storage.Levels"},
		{"full every", func(c *Config) { c.Storage.FullEvery = -1 }, "Storage.FullEvery"},
		{"dirty fraction", func(c *Config) { c.Storage.DirtyFraction = 1.5 }, "Storage.DirtyFraction"},
		{"compress ratio", func(c *Config) { c.Storage.CompressRatio = -0.1 }, "Storage.CompressRatio"},
		// NaN slips past ordered comparisons and silently shrinks or
		// garbles every stored image, so each float knob rejects it.
		{"buffer bandwidth NaN", func(c *Config) { c.Storage.Levels[0].Bandwidth = math.NaN() }, "Storage.Levels[0].Bandwidth"},
		{"pfs bandwidth NaN", func(c *Config) { c.Storage.Levels[2].Bandwidth = math.NaN() }, "Storage.Levels[2].Bandwidth"},
		{"dirty fraction NaN", func(c *Config) { c.Storage.DirtyFraction = math.NaN() }, "Storage.DirtyFraction"},
		{"compress ratio NaN", func(c *Config) { c.Storage.CompressRatio = math.NaN() }, "Storage.CompressRatio"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := storageCfg()
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("expected *ConfigError on field %q, got nil", tc.field)
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("rejection is %T, want *ConfigError: %v", err, err)
			}
			if ce.Field != tc.field {
				t.Errorf("Field = %q, want %q (reason %q)", ce.Field, tc.field, ce.Reason)
			}
		})
	}
}

// TestValidateStorageFold pins the normalization contract: a valid spec
// gets its servers level's replication defaults and the model defaults
// in place, Servers is set from the servers level, and a second Validate
// is a no-op — harnesses validate before handing the config to a job.
func TestValidateStorageFold(t *testing.T) {
	cfg := storageCfg()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	srv := cfg.Storage.ServersLevel()
	if cfg.Servers != 2 || srv.Replicas != 1 || srv.WriteQuorum != 1 {
		t.Errorf("Servers=%d Replicas=%d WriteQuorum=%d, want 2/1/1",
			cfg.Servers, srv.Replicas, srv.WriteQuorum)
	}
	sp := cfg.Storage
	if sp.FullEvery != 4 || sp.DirtyFraction != 0.35 || sp.CompressRatio != 0.6 {
		t.Errorf("planner defaults not normalized: %+v", sp)
	}
	if l := sp.Levels[0]; l.Bandwidth <= 0 || l.Latency <= 0 {
		t.Errorf("buffer defaults not normalized: %+v", l)
	}
	before := *sp
	before.Levels = append([]ckpt.LevelSpec(nil), sp.Levels...)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("re-validation not idempotent: %v", err)
	}
	if !reflect.DeepEqual(*cfg.Storage, before) || cfg.Servers != 2 {
		t.Errorf("re-validation changed the spec:\n  before %+v\n  after  %+v", before, *cfg.Storage)
	}
}

// TestValidateDefaultStorage pins the shorthand: a bare server count
// becomes the paper's one-level spec, Servers may repeat the spec's count
// but not contradict it, and explicit server placement (the grid
// presets) accepts a servers-only spec but no staging or PFS level.
func TestValidateDefaultStorage(t *testing.T) {
	cfg := baseCfg(4)
	cfg.Protocol = ProtoPcl
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	want := ckpt.Spec{
		Levels:    []ckpt.LevelSpec{{Kind: ckpt.LevelServers, Servers: 2, Replicas: 1, WriteQuorum: 1}},
		FullEvery: 4, DirtyFraction: 0.35, CompressRatio: 0.6,
	}
	if cfg.Storage == nil || !reflect.DeepEqual(*cfg.Storage, want) {
		t.Errorf("default Storage = %+v, want %+v", cfg.Storage, want)
	}

	// No servers and no protocol: no storage at all.
	cfg = baseCfg(4)
	cfg.Servers = 0
	if err := cfg.Validate(); err != nil || cfg.Storage != nil {
		t.Errorf("serverless baseline: Storage = %+v, err = %v", cfg.Storage, err)
	}

	spec := func(levels ...ckpt.LevelSpec) *ckpt.Spec { return &ckpt.Spec{Levels: levels} }
	servers := ckpt.LevelSpec{Kind: ckpt.LevelServers, Servers: 2}
	cases := []struct {
		name  string
		mut   func(*Config)
		field string // "" means accepted
	}{
		{"servers equal to spec", func(c *Config) { c.Storage = spec(servers) }, ""},
		{"servers contradict spec", func(c *Config) { c.Servers = 3; c.Storage = spec(servers) }, "Servers"},
		// Without a protocol nothing else looks at Servers, and NewJob
		// used to panic sizing its per-server tables.
		{"negative servers", func(c *Config) { c.Protocol = ProtoNone; c.Servers = -1 }, "Servers"},
		{"placed servers-only", func(c *Config) {
			c.Storage = spec(servers)
			c.ServerNodes = []int{4, 5}
		}, ""},
		{"placed with buffer", func(c *Config) {
			c.Storage = spec(ckpt.LevelSpec{Kind: ckpt.LevelBuffer}, servers)
			c.ServerNodes = []int{4, 5}
		}, "ServerNodes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseCfg(4)
			cfg.Protocol = ProtoPcl
			tc.mut(&cfg)
			err := cfg.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				return
			}
			var ce *ConfigError
			if !errors.As(err, &ce) || ce.Field != tc.field {
				t.Fatalf("got %v, want a *ConfigError on %q", err, tc.field)
			}
		})
	}
}

// TestValidateConfigErrorType checks that the pre-existing non-storage
// rejections share the single typed shape.
func TestValidateConfigErrorType(t *testing.T) {
	bad := []Config{
		{},
		{NP: 4, NewProgram: newRing(1, 0, 0), Protocol: "weird", Topology: topoN(10)},
		{NP: 4, NewProgram: newRing(1, 0, 0), Protocol: ProtoPcl, Topology: topoN(10)},
		{NP: 40, NewProgram: newRing(1, 0, 0), Topology: topoN(4)},
		{NP: 4, NewProgram: newRing(1, 0, 0), Servers: -1, Topology: topoN(10)},
		{NP: 4, NewProgram: newRing(1, 0, 0), HeartbeatTimeout: time.Second, Topology: topoN(10)},
	}
	for i, cfg := range bad {
		err := cfg.Validate()
		if err == nil {
			t.Errorf("config %d validated", i)
			continue
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("config %d: rejection is %T, want *ConfigError: %v", i, err, err)
		} else if ce.Field == "" {
			t.Errorf("config %d: empty Field in %v", i, err)
		}
	}
}
