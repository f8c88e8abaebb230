package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io/fs"
	"os"
	"sort"
	"strconv"
	"strings"

	"ftckpt/internal/ftpm"
	"ftckpt/internal/obs"
)

// outcome is what one run produced, as the fields the output check
// compares.  The simulator promises byte-identical output for a fixed
// (config, seed), so every field is exact: a change in any of them is a
// failed run, however fast.
type outcome map[string]string

// exporter is the trace sink of an exporting workload: a Chrome stream
// written straight into a SHA-256 hash.
type exporter struct {
	sum   hash.Hash
	chrom *obs.ChromeStreamSink
}

func newExporter() *exporter {
	h := sha256.New()
	return &exporter{sum: h, chrom: obs.NewChromeStreamSink(h)}
}

// digest finishes the exporter (if any) and collects the run's outcome:
// the Result fields, the workload checksum, and SHA-256 sums of the
// metrics JSON, the Chrome trace and the attribution JSON.
func digest(res ftpm.Result, job *ftpm.Job, ex *exporter) (outcome, error) {
	o := outcome{
		"completion_ns":   strconv.FormatInt(int64(res.Completion), 10),
		"waves_committed": strconv.Itoa(res.WavesCommitted),
		"last_wave":       strconv.Itoa(res.LastWave),
		"local_ckpts":     strconv.Itoa(res.LocalCkpts),
		"restarts":        strconv.Itoa(res.Restarts),
		"repairs":         strconv.Itoa(res.Repairs),
		"lost_work_ns":    strconv.FormatInt(int64(res.LostWork), 10),
		"messages":        strconv.FormatInt(res.Messages, 10),
		"payload_bytes":   strconv.FormatInt(res.PayloadBytes, 10),
		"ckpt_bytes":      strconv.FormatInt(res.CkptBytes, 10),
		"logged_msgs":     strconv.Itoa(res.LoggedMsgs),
		"logged_bytes":    strconv.FormatInt(res.LoggedBytes, 10),
		"server_failures": strconv.Itoa(res.ServerFailures),
		"failovers":       strconv.Itoa(res.Failovers),
		"wave_breakdown":  fmt.Sprintf("%+v", res.WaveBreakdown),
	}
	if progs := job.Programs(); len(progs) > 0 {
		o["checksum"] = strconv.FormatFloat(checksum(progs[0]), 'g', -1, 64)
	}
	m := sha256.New()
	if err := res.Metrics.WriteJSON(m); err != nil {
		return nil, fmt.Errorf("metrics JSON: %w", err)
	}
	o["metrics_sha256"] = hex.EncodeToString(m.Sum(nil))
	if ex != nil {
		if err := ex.chrom.Close(); err != nil {
			return nil, fmt.Errorf("chrome trace: %w", err)
		}
		o["chrome_sha256"] = hex.EncodeToString(ex.sum.Sum(nil))
		if res.Attribution == nil {
			return nil, fmt.Errorf("attribution missing from an attributed run")
		}
		a := sha256.New()
		if err := res.Attribution.WriteJSON(a); err != nil {
			return nil, fmt.Errorf("attribution JSON: %w", err)
		}
		o["attribution_sha256"] = hex.EncodeToString(a.Sum(nil))
	}
	return o, nil
}

// diff names every field on which two outcomes disagree, or "".
func (o outcome) diff(want outcome) string {
	keys := map[string]bool{}
	for k := range o {
		keys[k] = true
	}
	for k := range want {
		keys[k] = true
	}
	var bad []string
	for k := range keys {
		if o[k] != want[k] {
			bad = append(bad, fmt.Sprintf("%s: got %q, want %q", k, o[k], want[k]))
		}
	}
	sort.Strings(bad)
	return strings.Join(bad, "; ")
}

// referenceSeed is the seed whose outcomes are committed in
// reference.json; runs at other seeds are checked for repeat-equality
// and traced-equals-untraced only.
const referenceSeed = 1

//go:embed reference.json
var referenceJSON []byte

// references maps workload name to its outcome at referenceSeed.
func references() (map[string]outcome, error) {
	var refs map[string]outcome
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

// writeReference runs w once at referenceSeed and records its outcome
// in the reference file at path, keeping the other workloads' entries.
// Run it in a fresh process per workload, as the benchmark runs: the
// simulator's image sizes depend on the encoding/gob type ids the
// process has handed out before, so a workload's output depends on which
// workloads ran earlier in the same process.  Regenerate only when the
// simulator's output changes on purpose.
func writeReference(w *workload, path string) error {
	refs := map[string]outcome{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &refs); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	b, err := w.prepare(referenceSeed)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	r := runJob(w, b, false)
	if r.err != nil {
		return fmt.Errorf("%s: %w", w.name, r.err)
	}
	refs[w.name] = r.out
	raw, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
