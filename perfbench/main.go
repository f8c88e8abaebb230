// Command perfbench is the repository benchmark: it runs one named
// simulation workload through ftpm.NewJob (timed as set-up) and
// (*ftpm.Job).Run (timed as the run) for a fixed wall-clock budget,
// checks every run's simulated output, and prints one JSON result line.
//
//	perfbench -workload pcl-bt256 -seed 1 -seconds 25 -trace 0
//
// -trace 0 reports the end-to-end metrics with tracing off; -trace 1
// alternates untraced runs with runs under a CPU profile and an Emit
// timer and reports the per-layer metrics.  See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"ftckpt/internal/ftpm"
	"ftckpt/internal/obs"
)

// setupReps is how many extra times each measured run builds its job
// without running it: NewJob takes milliseconds, so one sample per run
// would leave setup_s at the mercy of a single scheduler hiccup.
const setupReps = 20

// minRuns is the fewest measured runs per side, however short -seconds is.
const minRuns = 3

func main() {
	var (
		name     = flag.String("workload", "", "workload to run")
		seed     = flag.Int64("seed", referenceSeed, "input seed (picks the killed rank or node)")
		seconds  = flag.Float64("seconds", 25, "measuring budget in wall-clock seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		commit   = flag.String("commit", "unknown", "commit being measured, for the host record")
		root     = flag.String("root", "..", "repository root, hashed into the host record")
		writeRef = flag.String("write-reference", "", "run the workload once at the reference seed and record its outcome in this reference file")
		profOut  = flag.String("profile-out", "", "with -trace 1, also write the last traced run's CPU profile here")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *writeRef != "" {
		if err := writeReference(w, *writeRef); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	refs, err := references()
	if err != nil {
		fatal(err)
	}
	ref := refs[w.name]
	if ref == nil {
		fatal(fmt.Errorf("reference.json has no outcome for %s; regenerate it with -write-reference", w.name))
	}
	refBuild, err := w.prepare(referenceSeed)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.name, err))
	}
	b := &bench{w: w, budget: time.Duration(*seconds * float64(time.Second)), build: refBuild}
	// One unmeasured warm-up run, because a fresh process's first run is
	// consistently slower than steady state.  It runs the reference seed,
	// so every invocation checks the committed outcome, whatever seed it
	// measures.
	b.run(refBuild, false, &ref)
	if *seed == referenceSeed {
		b.first = ref
	} else if b.build, err = w.prepare(*seed); err != nil {
		fatal(fmt.Errorf("%s: %w", w.name, err))
	}
	rec := record{Workload: w.name, Seed: *seed, Host: hostRecord(*commit, *root)}
	var metrics map[string]metric
	if *trace == 1 {
		metrics, err = b.traced(&rec, *profOut)
	} else {
		metrics = b.untraced(&rec)
	}
	if err != nil {
		fatal(err)
	}
	rec.Failures = b.failures
	emit(rec)
	emit(result{
		Correct:   len(b.failures) == 0,
		Attempted: b.attempted,
		Failed:    len(b.failures),
		Metrics:   metrics,
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func emit(v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(raw))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the line before the result: what was measured, where, and
// how many samples each figure rests on.
type record struct {
	Workload   string           `json:"workload"`
	Seed       int64            `json:"seed"`
	Host       host             `json:"host"`
	RunS       []float64        `json:"run_s_samples"`
	TracedRunS []float64        `json:"traced_run_s_samples,omitempty"`
	SetupN     int              `json:"setup_s_samples"`
	Tails      map[string]tail  `json:"tails"`
	CPUSamples map[string]int64 `json:"cpu_samples,omitempty"`
	Failures   []string         `json:"failures,omitempty"`
}

// tail is the highest percentile of a timing with at least ten samples
// beyond it; Pct is 0 when there are too few samples for any.
type tail struct {
	Pct   float64 `json:"pct"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// bench runs one workload at one seed and checks every run.
type bench struct {
	w      *workload
	budget time.Duration
	build  builder // the measured seed's job
	// first is the measured seed's outcome, which every run must repeat:
	// the committed one at the reference seed, else the first run's.
	first     outcome
	attempted int
	failures  []string
}

// run executes one job of build and checks its output against *want,
// or records it there when *want is still nil; it counts failures.
func (b *bench) run(build builder, traced bool, want *outcome) (jobResult, bool) {
	r := runJob(b.w, build, traced)
	b.attempted++
	fail := func(format string, args ...any) (jobResult, bool) {
		msg := fmt.Sprintf("run %d (traced=%v): %s", b.attempted, traced, fmt.Sprintf(format, args...))
		b.failures = append(b.failures, msg)
		fmt.Fprintln(os.Stderr, "perfbench:", msg)
		return r, false
	}
	if r.err != nil {
		return fail("%v", r.err)
	}
	if err := b.w.purpose(r.res); err != nil {
		return fail("%s: %v", b.w.name, err)
	}
	if *want == nil {
		*want = r.out
	} else if d := r.out.diff(*want); d != "" {
		return fail("output differs from the expected outcome: %s", d)
	}
	return r, true
}

// loop runs jobs until the budget is spent and each side has minRuns
// good runs; with both sides it alternates untraced and traced runs.
func (b *bench) loop(sides ...bool) map[bool][]jobResult {
	good := map[bool][]jobResult{}
	start := time.Now()
	for i := 0; ; i++ {
		enough := time.Since(start) >= b.budget
		for _, s := range sides {
			enough = enough && len(good[s]) >= minRuns
		}
		// Stop on budget, or when runs keep failing: a broken build
		// must not spin until the caller's timeout.
		if enough || len(b.failures) > 2*minRuns {
			return good
		}
		side := sides[i%len(sides)]
		if r, ok := b.run(b.build, side, &b.first); ok {
			if !side {
				r.setups = append(r.setups, b.setupOnly(setupReps)...)
			}
			good[side] = append(good[side], r)
		}
	}
}

// setupOnly times n job builds that are never run.
func (b *bench) setupOnly(n int) []time.Duration {
	var out []time.Duration
	for i := 0; i < n; i++ {
		var sink obs.Sink
		if b.w.exports {
			sink = newExporter().chrom
		}
		cfg := b.build(sink)
		t0 := time.Now()
		_, err := ftpm.NewJob(cfg)
		d := time.Since(t0)
		if err == nil {
			out = append(out, d)
		}
	}
	return out
}

func (b *bench) untraced(rec *record) map[string]metric {
	runs := b.loop(false)[false]
	var run, setup, cpu, alloc []float64
	for _, r := range runs {
		run = append(run, r.run.Seconds())
		cpu = append(cpu, r.cpu.Seconds())
		alloc = append(alloc, float64(r.alloc)/(1<<20))
		for _, s := range r.setups {
			setup = append(setup, s.Seconds())
		}
	}
	rec.RunS, rec.SetupN = run, len(setup)
	rec.Tails = map[string]tail{"run_s": tailOf(run), "setup_s": tailOf(setup)}
	runS, msgsPerS := median(run), 0.0
	if len(runs) > 0 {
		msgsPerS = float64(runs[0].res.Messages) / runS
	}
	return map[string]metric{
		"setup_s":        {median(setup), "s"},
		"run_s":          {runS, "s"},
		"sim_msgs_per_s": {msgsPerS, "1/s"},
		"cpu_s":          {median(cpu), "s"},
		"alloc_mb":       {median(alloc), "MB"},
		"peak_rss_mb":    {peakRSSMB(), "MB"},
	}
}

func (b *bench) traced(rec *record, profOut string) (map[string]metric, error) {
	sides := b.loop(false, true)
	plain, prof := sides[false], sides[true]
	counts := map[string]int64{}
	var run, trun, mallocs, gcs, gcCPU, emitCalls, emitS []float64
	for _, r := range plain {
		run = append(run, r.run.Seconds())
		mallocs = append(mallocs, float64(r.mallocs))
		gcs = append(gcs, float64(r.gcCycles))
		gcCPU = append(gcCPU, r.gcCPU)
	}
	for _, r := range prof {
		trun = append(trun, r.run.Seconds())
		emitCalls = append(emitCalls, float64(r.emitCalls))
		emitS = append(emitS, r.emitTime.Seconds())
		if err := bucketProfile(r.profile, counts); err != nil {
			return nil, err
		}
	}
	if profOut != "" && len(prof) > 0 {
		if err := os.WriteFile(profOut, prof[len(prof)-1].profile, 0o644); err != nil {
			return nil, err
		}
	}
	rec.RunS, rec.TracedRunS = run, trun
	rec.Tails = map[string]tail{"run_s": tailOf(run), "traced_run_s": tailOf(trun)}
	rec.CPUSamples = counts
	var total int64
	for _, c := range counts {
		total += c
	}
	m := map[string]metric{
		"cpu_samples":    {float64(total), "count"},
		"mallocs":        {median(mallocs), "count"},
		"gc_cycles":      {median(gcs), "count"},
		"gc_cpu_s":       {median(gcCPU), "s"},
		"obs.emit_calls": {median(emitCalls), "count"},
		"obs.emit_s":     {median(emitS), "s"},
		"trace_overhead": {0, "ratio"},
	}
	if len(plain) > 0 && len(prof) > 0 {
		m["trace_overhead"] = metric{median(trun) / median(run), "ratio"}
	}
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = float64(counts[l]) / float64(total)
		}
		m["cpu_share."+l] = metric{share, "share"}
	}
	var res ftpm.Result
	if len(plain) > 0 {
		res = plain[0].res
	}
	mb := func(v int64) float64 { return float64(v) / (1 << 20) }
	c := res.Metrics.Counter
	for name, v := range map[string]metric{
		"net.msgs":          {float64(res.Messages), "count"},
		"mpi.payload_mb":    {mb(res.PayloadBytes), "MB"},
		"app.ckpts":         {float64(c(obs.MAppCkpts)), "count"},
		"ckpt.local":        {float64(c(obs.MLocalCkpts)), "count"},
		"ckpt.image_mb":     {mb(c(obs.MImageBytes)), "MB"},
		"ckpt.drain_mb":     {mb(c(obs.MDrainBytes)), "MB"},
		"ckpt.failover":     {float64(c(obs.MFailovers)), "count"},
		"markers.sent":      {float64(c(obs.MMarkersSent)), "count"},
		"pcl.delayed_sends": {float64(c(obs.MDelayedSends)), "count"},
		"log.msgs":          {float64(c(obs.MLoggedMsgs)), "count"},
		"log.replayed":      {float64(c(obs.MReplayedMsgs)), "count"},
		"waves.committed":   {float64(c(obs.MWavesCommitted)), "count"},
		"restarts":          {float64(res.Restarts), "count"},
		"repairs":           {float64(res.Repairs), "count"},
	} {
		m[name] = v
	}
	return m, nil
}

// jobResult is one measured run.
type jobResult struct {
	setups    []time.Duration // NewJob wall time: this run's, then setupOnly's
	run       time.Duration   // Job.Run wall time
	cpu       time.Duration   // process user+sys CPU across NewJob and Run
	alloc     uint64          // heap bytes allocated
	mallocs   uint64
	gcCycles  uint32
	gcCPU     float64
	emitCalls int64         // traced exporting runs: Emit calls into the exporter
	emitTime  time.Duration // … and the wall time spent inside them
	profile   []byte        // traced runs: the CPU profile
	res       ftpm.Result
	out       outcome
	err       error
}

// timedSink times each Emit into the exporter it wraps.  Emit is
// synchronous and never parks, so the total is the exporter's self time.
type timedSink struct {
	inner obs.Sink
	calls int64
	busy  time.Duration
}

func (s *timedSink) Emit(ev obs.Event) {
	t0 := time.Now()
	s.inner.Emit(ev)
	s.busy += time.Since(t0)
	s.calls++
}

// runJob builds and runs one job.  A traced run records a CPU profile
// of NewJob and Run and times the exporter's Emit calls; neither may
// change the simulated output.
func runJob(w *workload, build builder, traced bool) jobResult {
	var (
		ex    *exporter
		sink  obs.Sink
		timed *timedSink
	)
	if w.exports {
		ex = newExporter()
		sink = ex.chrom
		if traced {
			timed = &timedSink{inner: ex.chrom}
			sink = timed
		}
	}
	cfg := build(sink)
	// Start every run from a collected heap, so one run's garbage is not
	// billed to the next.
	runtime.GC()
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return jobResult{err: fmt.Errorf("cpu profile: %w", err)}
		}
	}
	s0 := readStats()
	t0 := time.Now()
	job, err := ftpm.NewJob(cfg)
	t1 := time.Now()
	var res ftpm.Result
	if err == nil {
		res, err = job.Run()
	}
	t2 := time.Now()
	s1 := readStats()
	if traced {
		pprof.StopCPUProfile()
	}
	r := jobResult{
		setups:   []time.Duration{t1.Sub(t0)},
		run:      t2.Sub(t1),
		cpu:      s1.cpu - s0.cpu,
		alloc:    s1.alloc - s0.alloc,
		mallocs:  s1.mallocs - s0.mallocs,
		gcCycles: s1.gcCycles - s0.gcCycles,
		gcCPU:    s1.gcCPU - s0.gcCPU,
		profile:  prof.Bytes(),
		res:      res,
		err:      err,
	}
	if timed != nil {
		r.emitCalls, r.emitTime = timed.calls, timed.busy
	}
	if err == nil {
		r.out, r.err = digest(res, job, ex)
	}
	return r
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailOf picks the highest of the usual percentiles that has at least
// ten samples beyond it.
func tailOf(xs []float64) tail {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		beyond := int(math.Floor(float64(n) * (1 - p/100)))
		if beyond >= 10 {
			return tail{Pct: p, Value: s[n-1-beyond], N: n}
		}
	}
	return tail{N: n}
}
