package ftckpt

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// sameSpec compares two specs by their printed values, which unlike
// reflect.DeepEqual treats a NaN field as equal to itself.
func sameSpec(a, b StorageSpec) bool { return fmt.Sprintf("%+v", a) == fmt.Sprintf("%+v", b) }

// FuzzBuildConfig mutates the Options storage tree — the Servers
// shorthand, the level kinds and their order, the servers level's
// replication knobs, the buffer and PFS knobs and the image planner —
// together with the protocol and platform, and runs only buildConfig and
// Config.Validate (never a simulation).  Properties:
//
//   - no input panics;
//   - every rejection, from either layer, is a *ConfigError;
//   - a validated config validated again keeps Servers and *Storage
//     unchanged (harnesses validate before NewJob validates again);
//   - the caller's StorageSpec is never written.
//
// kinds spells the level list one byte per level: 'b' buffer, 's'
// servers, 'p' PFS, anything else an unknown kind; empty means no
// Storage.  The seed corpus lives in testdata/fuzz/FuzzBuildConfig.
func FuzzBuildConfig(f *testing.F) {
	protocols := []Protocol{"", ProtocolNone, Pcl, Vcl, Mlog, "tcp"}
	platforms := []Platform{"", PlatformEthernet, PlatformMyrinetGM, PlatformMyrinetTCP, PlatformGrid, "atm"}
	f.Fuzz(func(t *testing.T, proto, plat uint8, np uint16, servers int8, kinds string,
		lvlServers, replicas, quorum, retries int8, backoffMS int16,
		targets, stripes int8, capacity int32, bandwidth float64,
		incremental, compress bool, dirty, ratio float64) {
		o := Options{
			Workload: WorkloadEP,
			NP:       int(np),
			Protocol: protocols[int(proto)%len(protocols)],
			Interval: time.Second,
			Servers:  int(servers),
			Platform: platforms[int(plat)%len(platforms)],
		}
		if len(kinds) > 4 {
			kinds = kinds[:4]
		}
		if kinds != "" {
			o.Storage = &StorageSpec{
				Incremental: incremental, DirtyFraction: dirty,
				Compress: compress, CompressRatio: ratio,
			}
			for _, k := range []byte(kinds) {
				var l LevelSpec
				switch k {
				case 'b':
					l = LevelSpec{Kind: LevelBuffer, Bandwidth: bandwidth, Capacity: int64(capacity)}
				case 's':
					l = LevelSpec{Kind: LevelServers, Servers: int(lvlServers),
						Replicas: int(replicas), WriteQuorum: int(quorum), StoreRetries: int(retries),
						RetryBackoff: time.Duration(backoffMS) * time.Millisecond}
				case 'p':
					l = LevelSpec{Kind: LevelPFS, Targets: int(targets), Stripes: int(stripes), Bandwidth: bandwidth}
				default:
					l = LevelSpec{Kind: LevelKind([]byte{k})}
				}
				o.Storage.Levels = append(o.Storage.Levels, l)
			}
		}
		var caller StorageSpec
		if o.Storage != nil {
			caller = *o.Storage
			caller.Levels = append([]LevelSpec(nil), o.Storage.Levels...)
		}

		cfg, err := buildConfig(o)
		if err == nil {
			err = cfg.Validate()
		}
		if o.Storage != nil && !sameSpec(*o.Storage, caller) {
			t.Fatalf("the caller's spec was written:\n  before %+v\n  after  %+v", caller, *o.Storage)
		}
		if err != nil {
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("rejection %v is %T, want *ConfigError", err, err)
			}
			return
		}

		servers1, storage1 := cfg.Servers, cfg.Storage
		var spec1 StorageSpec
		if storage1 != nil {
			spec1 = *storage1
			spec1.Levels = append([]LevelSpec(nil), storage1.Levels...)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("a validated config fails validation again: %v", err)
		}
		if cfg.Servers != servers1 || cfg.Storage != storage1 {
			t.Fatalf("re-validation changed Servers %d -> %d or replaced Storage", servers1, cfg.Servers)
		}
		if storage1 != nil && !sameSpec(*cfg.Storage, spec1) {
			t.Fatalf("re-validation changed the spec:\n  before %+v\n  after  %+v", spec1, *cfg.Storage)
		}
	})
}
