// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives the fuzzer only through the packages' exported Go
// API, times the calls into each layer from outside, checks the outputs,
// and prints every metric by name and unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with -trace 1 they are the per-layer ones of a run that
// alternates untraced and traced episodes. See README.md.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench -workload snap-bftpd -seed 1 -seconds 40 -trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/targets"
)

// setupsPerEpisode is how many extra set-ups a run times before each
// episode. Spread over the run, and each started from a collected heap,
// they and the episodes' own set-ups give setup_s as a median.
const setupsPerEpisode = 5

// stamp identifies what produced a result: the host, the toolchain, the
// code and the inputs. Core counts matter because the benchmark measures
// wall clock: the same code on fewer cores is slower.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

type result struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]valueWithUnit `json:"metrics"`
}

type valueWithUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: snap-bftpd | root-dnsmasq | campaign-ckpt-lightftp")
		seed     = flag.Int64("seed", 1, "workload seed: the fuzzer or campaign RNG seed")
		secs     = flag.Int("seconds", 40, "wall seconds to measure for on the reference host: the run plans that many seconds of episodes (at least three)")
		trace    = flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
		traceDir = flag.String("trace-dir", ".bench_build", "directory the span file of a traced run is written to")
		commit   = flag.String("commit", "", "commit the code under test was checked out at, for the stamp")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload (one of snap-bftpd, root-dnsmasq, campaign-ckpt-lightftp), -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	st := stamp{
		Workload:   w.name,
		Seed:       *seed,
		Trace:      *trace == 1,
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     *commit,
		Source:     sourceDigest("."),
	}
	if st.Commit == "" {
		st.Commit = "unknown"
	}
	if w.workers > st.Nproc {
		fmt.Fprintf(os.Stderr, "perfbench: warning: %d campaign workers on %d cores; wall-clock figures are not comparable\n", w.workers, st.Nproc)
	}
	res, traceRec := runWorkload(w, st, time.Duration(*secs)*time.Second)
	if traceRec != nil {
		path := filepath.Join(*traceDir, "trace-"+w.name+".json")
		if err := writeTrace(path, st, traceRec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		} else {
			fmt.Printf("spans of the first traced episode written to %s\n", path)
		}
	}
	enc, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(enc))
}

// runWorkload makes the run's set-ups and episodes, checks them, prints
// the human-readable report and returns the result line's content plus
// the recorder of the first traced episode (nil when untraced).
func runWorkload(w *workload, st stamp, seconds time.Duration) (result, *recorder) {
	fmt.Printf("perfbench workload=%s seed=%d trace=%t nproc=%d gomaxprocs=%d go=%s commit=%s source_sha256=%s\n",
		st.Workload, st.Seed, st.Trace, st.Nproc, st.GOMAXPROCS, st.GoVersion, st.Commit, st.Source)
	lg := &ledger{}
	start := time.Now()
	var setups []time.Duration
	var eps []*episode
	first := map[int64]*episode{}
	for _, p := range w.plan(st.Seed, seconds, st.Trace) {
		for i := 0; i < setupsPerEpisode; i++ {
			runtime.GC()
			d, err := w.setupOnce(p.seed)
			if lg.op(err, "set-up") {
				setups = append(setups, d)
			}
		}
		ep := w.run(p, lg)
		eps = append(eps, ep)
		fmt.Printf("episode seed=%d traced=%t execs=%d loop=%.3fs execs/s=%.1f edges=%d steps=%d wall=%.3fs\n",
			ep.seed, ep.traced, ep.execs, ep.loopWall.Seconds(), ratio(float64(ep.execs), ep.loopWall.Seconds()),
			ep.counts.Edges, len(ep.steps), ep.wall.Seconds())
		if f, ok := first[ep.seed]; ok {
			lg.check(ep.counts == f.counts, "episode seed %d counts %+v differ from its first run %+v", ep.seed, ep.counts, f.counts)
		} else {
			first[ep.seed] = ep
			replayCrashes(w.target, ep.crashes, lg)
		}
	}

	if w.policy == core.PolicyNone {
		for _, ep := range eps {
			for _, m := range predictedZero {
				if v, ok := ep.layers[m]; ok {
					lg.check(v == 0, "%s = %v, want 0: the policy takes no snapshots", m, v)
				}
			}
		}
	}

	e2e, e2eNotes := endToEndValues(eps, setups)
	layers := layerValues(eps)
	fmt.Printf("%d episodes of %v virtual time (%d traced), %d set-ups, run wall %.1fs\n",
		len(eps), w.budget, countTraced(eps), len(setups), time.Since(start).Seconds())
	fmt.Println("end-to-end (untraced episodes):")
	for _, m := range endToEnd {
		fmt.Printf("  %-34s %14.6g %-6s %s\n", m.name, e2e[m.name], m.unit, e2eNotes[m.name])
	}
	fmt.Printf("  %-34s %14.6g %-6s %d failed of %d attempted\n", "ops_failed_frac", ratio(float64(lg.failed), float64(lg.attempted)), "frac", lg.failed, lg.attempted)
	fmt.Println("per-layer:")
	for _, m := range perLayer {
		if v, ok := layers[m.name]; ok {
			fmt.Printf("  %-34s %14.6g %s\n", m.name, v, m.unit)
		} else {
			fmt.Printf("  %-34s %14s %s\n", m.name, "n/a", m.unit)
		}
	}
	for _, f := range lg.failures {
		fmt.Println("FAILED:", f)
	}

	res := result{Correct: lg.failed == 0, Attempted: lg.attempted, Failed: lg.failed, Metrics: map[string]valueWithUnit{}}
	if st.Trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = valueWithUnit{layers[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.name] = valueWithUnit{e2e[m.name], m.unit}
		}
	}
	var rec *recorder
	for _, ep := range eps {
		if ep.rec != nil {
			rec = ep.rec
			break
		}
	}
	return res, rec
}

func countTraced(eps []*episode) int {
	n := 0
	for _, ep := range eps {
		if ep.traced {
			n++
		}
	}
	return n
}

// endToEndValues aggregates the untraced episodes. Medians are taken over
// every sample of the run; the 90th percentile and throughput per episode
// and then as the median over episodes, so one episode slowed by another
// tenant of the host does not set the run's figure. Notes give the sample
// counts.
func endToEndValues(eps []*episode, setups []time.Duration) (map[string]float64, map[string]string) {
	var rates, heaps, edges, p90s []float64
	var steps, ckpts, resumes []time.Duration
	setups = append([]time.Duration(nil), setups...)
	seen := map[int64]bool{}
	n := 0
	for _, ep := range eps {
		if !seen[ep.seed] {
			seen[ep.seed] = true
			edges = append(edges, float64(ep.counts.Edges))
		}
		if ep.traced {
			continue
		}
		n++
		rates = append(rates, ratio(float64(ep.execs), ep.loopWall.Seconds()))
		heaps = append(heaps, float64(ep.peakHeap)/1e6)
		steps = append(steps, ep.steps...)
		p90s = append(p90s, quantile(seconds(ep.steps), 0.9))
		ckpts = append(ckpts, ep.ckpts...)
		resumes = append(resumes, ep.resumes...)
		setups = append(setups, ep.setup)
	}
	v := map[string]float64{
		"execs_per_s":  median(rates),
		"edges":        median(edges),
		"step_p50_us":  median(seconds(steps)) * 1e6,
		"step_p90_us":  median(p90s) * 1e6,
		"ckpt_p50_ms":  median(seconds(ckpts)) * 1e3,
		"resume_s":     median(seconds(resumes)),
		"setup_s":      median(seconds(setups)),
		"peak_heap_mb": median(heaps),
	}
	notes := map[string]string{
		"execs_per_s":  fmt.Sprintf("median of %d episodes", n),
		"edges":        fmt.Sprintf("median over %d episode seeds, each exact", len(edges)),
		"step_p50_us":  fmt.Sprintf("n=%d", len(steps)),
		"step_p90_us":  fmt.Sprintf("median of %d episode p90s, n=%d", n, len(steps)),
		"ckpt_p50_ms":  fmt.Sprintf("n=%d", len(ckpts)),
		"resume_s":     fmt.Sprintf("median, n=%d", len(resumes)),
		"setup_s":      fmt.Sprintf("median, n=%d", len(setups)),
		"peak_heap_mb": fmt.Sprintf("median of %d episode peaks", n),
	}
	return v, notes
}

// layerValues reports, for each per-layer metric, the value of the first
// episode that measured it when the metric is a count (exact for the run's
// own seed), and otherwise the median over the episodes that measured it.
// Runtime metrics and the step latency tail come from untraced episodes
// only, since the span recorder allocates and adds clock reads; the trace
// overhead compares traced with untraced timed loops of the same seeds.
func layerValues(eps []*episode) map[string]float64 {
	vals := map[string][]float64{}
	var tracedWall, plainWall []float64
	var steps []time.Duration
	for _, ep := range eps {
		if ep.loopWall == 0 {
			continue
		}
		for k, v := range ep.layers {
			vals[k] = append(vals[k], v)
		}
		if ep.traced {
			tracedWall = append(tracedWall, ep.loopWall.Seconds())
			continue
		}
		plainWall = append(plainWall, ep.loopWall.Seconds())
		steps = append(steps, ep.steps...)
		vals["runtime.gc_cpu_share"] = append(vals["runtime.gc_cpu_share"], ratio(ep.rt.gcCPU, ep.rt.busyCPU))
		vals["runtime.alloc_bytes_per_exec"] = append(vals["runtime.alloc_bytes_per_exec"], ratio(float64(ep.rt.allocBytes), float64(ep.execs)))
	}
	out := map[string]float64{}
	for _, m := range perLayer {
		if vs := vals[m.name]; len(vs) > 0 {
			if m.unit == "count" {
				out[m.name] = vs[0]
			} else {
				out[m.name] = median(vs)
			}
		}
	}
	if len(steps) > 0 {
		out["core.step_p99_us"] = quantile(seconds(steps), 0.99) * 1e6
	}
	if len(tracedWall) > 0 && len(plainWall) > 0 {
		out["trace.overhead"] = median(tracedWall)/median(plainWall) - 1
	}
	return out
}

// replayCrashes replays every unique crash from the root snapshot of a
// freshly launched instance and checks it crashes with the same key.
func replayCrashes(target string, crashes []core.Crash, lg *ledger) {
	if len(crashes) == 0 {
		return
	}
	inst, err := targets.Launch(target, targets.LaunchConfig{})
	if !lg.op(err, "launch for crash replay") {
		return
	}
	for _, c := range crashes {
		in := c.Input.Clone()
		in.SnapshotAt = -1
		res, err := inst.Agent.RunFromRoot(in, nil)
		if !lg.op(err, "crash replay") {
			continue
		}
		got := "no crash"
		if res.Crashed {
			got = core.Crash{Kind: res.Crash.Kind, Msg: res.Crash.Msg}.Key()
		}
		lg.check(got == c.Key(), "crash %q replayed from the root as %q", c.Key(), got)
	}
}

// sourceDigest hashes the module's go.mod and Go sources under root, in
// path order, so a result names the code it measured even where there is
// no git metadata. Build output directories are skipped.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
