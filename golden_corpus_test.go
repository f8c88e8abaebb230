package ftckpt

// Committed reference corpus: the golden determinism tests compare a run
// only with its own repeat, so a change that shifts output the same way
// on every run would still pass them.  This test pins the output of a
// fixed scenario matrix to SHA-256 digests committed under
// testdata/golden/digests.json — the Report (as %+v), the metrics JSON,
// the Chrome trace and the attribution JSON — so a refactor is proven to
// leave behaviour unchanged rather than assumed to.
//
// Every scenario runs in a fresh process (the test binary re-executed
// with corpusScenarioEnv naming it): encoding/gob numbers types per
// process in first-use order, and checkpoint images embed those numbers,
// so a scenario's bytes depend on what else ran in the same process.
//
// Regenerate only on purpose, and say why in CHANGES.md:
//
//	go test . -run '^TestGoldenCorpus$' -update

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

var updateCorpus = flag.Bool("update", false, "rewrite testdata/golden/digests.json from the current tree")

const (
	corpusFile = "testdata/golden/digests.json"
	// corpusScenarioEnv names the one scenario a re-executed test binary
	// runs; corpusOutEnv names the file it writes that scenario's digests to.
	corpusScenarioEnv = "FTCKPT_CORPUS_SCENARIO"
	corpusOutEnv      = "FTCKPT_CORPUS_OUT"
)

// corpusDigests maps an artifact name ("report", "metrics", "trace",
// "attribution", or "pointN.report"-style names for sweeps) to the hex
// SHA-256 of its bytes.
type corpusDigests map[string]string

func (d corpusDigests) add(name string, b []byte) {
	sum := sha256.Sum256(b)
	d[name] = hex.EncodeToString(sum[:])
}

// corpusScenarios is the fixed matrix: one failure-and-recovery BT run
// per protocol, the replicated heartbeat path, the grid platform, ULFM
// in-job repair through a node loss, the two-level storage hierarchy and
// the heartbeat-chaos sweep.
var corpusScenarios = []struct {
	name string
	run  func(t *testing.T) corpusDigests
}{
	{"bt-kill-pcl", func(t *testing.T) corpusDigests { return corpusRun(t, withAttribution(btKillGolden(Pcl))) }},
	{"bt-kill-vcl", func(t *testing.T) corpusDigests { return corpusRun(t, withAttribution(btKillGolden(Vcl))) }},
	{"bt-kill-mlog", func(t *testing.T) corpusDigests { return corpusRun(t, withAttribution(btKillGolden(Mlog))) }},
	{"replicated-heartbeat", func(t *testing.T) corpusDigests { return corpusRun(t, withAttribution(replicatedGolden())) }},
	{"grid-vcl", func(t *testing.T) corpusDigests { return corpusRun(t, gridGolden()) }},
	{"ulfm-node", func(t *testing.T) corpusDigests {
		o := withAttribution(ulfmGolden())
		o.Failures = []Failure{KillNode(40*time.Millisecond, 3)}
		return corpusRun(t, o)
	}},
	{"storage", func(t *testing.T) corpusDigests { return corpusRun(t, withAttribution(storageGolden())) }},
	{"chaos-sweep", corpusChaosSweep},
}

func withAttribution(o Options) Options {
	o.Attribution = true
	return o
}

// corpusRun executes one run and digests its Report (registry and
// attribution pointers stripped), metrics JSON, Chrome trace and, when
// present, attribution JSON.
func corpusRun(t *testing.T, o Options) corpusDigests {
	t.Helper()
	rep, met, trace := goldenArtifacts(t, o)
	d := corpusDigests{}
	d.add("metrics", met)
	d.add("trace", trace)
	if rep.Attribution != nil {
		d.add("attribution", attribJSON(t, rep.Attribution))
		rep.Attribution = nil
	}
	d.add("report", []byte(fmt.Sprintf("%+v", rep)))
	return d
}

// corpusChaosSweep digests the golden chaos sweep: every point's Report
// and Chrome trace plus the merged metrics and the serialized progress
// log.  It runs the points one at a time (Jobs=1): with concurrent
// workers the order in which points first gob-encode is a wall-clock
// race, and the gob type numbering it fixes shows up in the later
// points' image bytes.  TestGoldenDeterminismChaosSweep keeps covering
// Jobs=4 against a repeat in the same process.
func corpusChaosSweep(t *testing.T) corpusDigests {
	t.Helper()
	reps, met, traces, log := runChaosSweep(t, 1)
	d := corpusDigests{}
	d.add("metrics", met)
	d.add("tracelog", log)
	for i, rep := range reps {
		d.add(fmt.Sprintf("point%d.trace", i), traces[i])
		d.add(fmt.Sprintf("point%d.report", i), []byte(fmt.Sprintf("%+v", rep)))
	}
	return d
}

// TestGoldenCorpus re-executes the test binary once per scenario (one
// subtest each) and compares the digests each child reports with the
// committed corpus, or, under -update, rewrites the corpus from them.
func TestGoldenCorpus(t *testing.T) {
	if name := os.Getenv(corpusScenarioEnv); name != "" {
		corpusChild(t, name)
		return
	}
	var want map[string]corpusDigests
	if !*updateCorpus {
		b, err := os.ReadFile(corpusFile)
		if err != nil {
			t.Fatalf("reading corpus (regenerate with -update): %v", err)
		}
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatalf("parsing %s: %v", corpusFile, err)
		}
		if len(want) != len(corpusScenarios) {
			t.Errorf("%s holds %d scenarios, the test runs %d", corpusFile, len(want), len(corpusScenarios))
		}
	}
	got := map[string]corpusDigests{}
	dir := t.TempDir()
	for _, sc := range corpusScenarios {
		t.Run(sc.name, func(t *testing.T) {
			d := corpusSpawn(t, sc.name, filepath.Join(dir, sc.name+".json"))
			got[sc.name] = d
			if *updateCorpus {
				return
			}
			w, ok := want[sc.name]
			if !ok {
				t.Fatalf("scenario missing from %s", corpusFile)
			}
			names := make([]string, 0, len(d))
			for k := range d {
				names = append(names, k)
			}
			for k := range w {
				if _, ok := d[k]; !ok {
					names = append(names, k)
				}
			}
			sort.Strings(names)
			for _, k := range names {
				if d[k] != w[k] {
					t.Errorf("%s digest %.12q, corpus has %.12q", k, d[k], w[k])
				}
			}
		})
	}
	if !*updateCorpus {
		return
	}
	if t.Failed() || len(got) != len(corpusScenarios) {
		t.Fatal("not rewriting the corpus: -update needs every scenario to run and pass")
	}
	b, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(corpusFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(corpusFile, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// corpusSpawn runs one scenario in a fresh copy of the test binary and
// returns the digests it wrote to out.
func corpusSpawn(t *testing.T, name, out string) corpusDigests {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestGoldenCorpus$", "-test.count=1")
	cmd.Env = append(os.Environ(), corpusScenarioEnv+"="+name, corpusOutEnv+"="+out)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child process failed: %v\n%s", err, msg)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var d corpusDigests
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// corpusChild runs one named scenario inside a re-executed test binary
// and writes its digests where the parent asked.
func corpusChild(t *testing.T, name string) {
	for _, sc := range corpusScenarios {
		if sc.name != name {
			continue
		}
		b, err := json.Marshal(sc.run(t))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(os.Getenv(corpusOutEnv), b, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatalf("unknown corpus scenario %q", name)
}
