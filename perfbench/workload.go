package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/targets"
)

// workload is one benchmark input set. Every workload is a closed loop
// driven by one goroutine per fuzzer worker: each call into the system
// starts only after the previous one returned.
type workload struct {
	name string
	// campaign selects the checkpointed-campaign loop; otherwise a solo
	// core.Fuzzer built the way nyx-net's solo path builds it.
	campaign bool
	target   string
	policy   core.Policy
	// budget is the virtual time one episode fuzzes for. Every episode of
	// one seed does the same deterministic work.
	budget time.Duration
	// episodeWall is about how long one episode takes on the reference
	// host (2 cores); a run plans as many episodes as fill its seconds.
	episodeWall time.Duration
	// workers is the campaign's worker count (never more than the host's
	// cores: the benchmark measures wall clock).
	workers int
	// ckptReps is how many checkpoints a solo episode takes of its final
	// state (a campaign checkpoints after every round instead);
	// resumeReps how many resumes every episode times.
	ckptReps   int
	resumeReps int
}

var workloads = []*workload{
	{
		name:        "snap-bftpd",
		target:      "bftpd",
		policy:      core.PolicyBalanced,
		budget:      15 * time.Second,
		episodeWall: 3 * time.Second,
		ckptReps:    10,
		resumeReps:  5,
	},
	{
		name:        "root-dnsmasq",
		target:      "dnsmasq",
		policy:      core.PolicyNone,
		budget:      45 * time.Second,
		episodeWall: 3 * time.Second,
		ckptReps:    10,
		resumeReps:  5,
	},
	{
		name:        "campaign-ckpt-lightftp",
		campaign:    true,
		target:      "lightftp",
		policy:      core.PolicyAggressive,
		budget:      8 * time.Second,
		episodeWall: 4 * time.Second,
		workers:     2,
		resumeReps:  3,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// counts are an episode's deterministic outcomes: two episodes of one seed
// must agree on all of them, traced or not.
type counts struct {
	Execs, Rounds, RootExecs, SnapshotExecs, FullPrefixReexecs uint64
	PoolHits, PoolMisses                                       uint64
	Edges, Queue, Crashes, Corpus                              int
	Deduped                                                    uint64
	CkptBytes                                                  int
}

// episode is one fresh fuzzer (or campaign) run for the workload's virtual
// budget, followed by its checkpoint and resume phases.
type episode struct {
	seed     int64
	traced   bool
	setup    time.Duration // launch + seed import, or campaign.New
	loopWall time.Duration // the timed loop (campaign: rounds + checkpoints)
	execs    uint64        // executions inside the timed loop
	steps    []time.Duration
	ckpts    []time.Duration
	resumes  []time.Duration
	wall     time.Duration // the whole episode, with its checkpoint and resume phases
	peakHeap uint64
	rt       runtimeCounters // runtime counter deltas over the timed loop
	counts   counts
	crashes  []core.Crash
	layers   map[string]float64
	rec      *recorder
}

// ledger counts attempted and failed operations and checks. A failure is
// recorded, not fatal: the run goes on and reports ops_failed_frac.
type ledger struct {
	attempted, failed int
	failures          []string
}

func (l *ledger) op(err error, what string) bool {
	l.attempted++
	if err != nil {
		l.failed++
		l.failures = append(l.failures, fmt.Sprintf("%s: %v", what, err))
		return false
	}
	return true
}

func (l *ledger) check(ok bool, format string, args ...any) bool {
	if ok {
		return l.op(nil, "")
	}
	return l.op(fmt.Errorf(format, args...), "check")
}

// planned is one episode of a run's plan.
type planned struct {
	seed   int64
	traced bool
}

// plan lays out a run's episodes from its seed: as many as fill seconds
// on the reference host, at least three. Episode seeds are derived from
// the run's seed (the first is the seed itself), so one run averages over
// several fuzzing trajectories and the same seed always plans the same
// work. An untraced run ends by repeating the first episode; a traced run
// runs every episode seed untraced and then traced. Either way each
// episode seed that runs twice must give identical counts.
func (w *workload) plan(seed int64, seconds time.Duration, traced bool) []planned {
	n := max(3, int(seconds/w.episodeWall))
	var out []planned
	if traced {
		for i := 0; i < n/2; i++ {
			s := episodeSeed(seed, i)
			out = append(out, planned{s, false}, planned{s, true})
		}
		return out
	}
	for i := 0; i < n-1; i++ {
		out = append(out, planned{episodeSeed(seed, i), false})
	}
	return append(out, out[0])
}

// episodeSeed derives the i-th episode seed of a run (splitmix64).
func episodeSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	z := uint64(seed) + uint64(i)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

func (w *workload) run(p planned, lg *ledger) *episode {
	runtime.GC() // start every episode from a collected heap
	start := time.Now()
	var ep *episode
	if w.campaign {
		ep = w.runCampaign(p.seed, p.traced, lg)
	} else {
		ep = w.runSolo(p.seed, p.traced, lg)
	}
	ep.seed = p.seed
	ep.wall = time.Since(start)
	return ep
}

// setupOnce times one set-up alone: launch plus seed import for a solo
// workload, campaign.New for the campaign.
func (w *workload) setupOnce(seed int64) (time.Duration, error) {
	start := time.Now()
	if w.campaign {
		_, err := campaign.New(w.campaignConfig(seed))
		return time.Since(start), err
	}
	inst, err := targets.Launch(w.target, targets.LaunchConfig{})
	if err != nil {
		return 0, err
	}
	err = w.newFuzzer(inst.Agent, inst, seed, inst.Seeds()).Step()
	return time.Since(start), err
}

// newFuzzer builds a solo fuzzer the way nyx-net's solo path does.
func (w *workload) newFuzzer(exec core.Executor, inst *targets.Instance, seed int64, seeds []*spec.Input) *core.Fuzzer {
	return core.New(exec, inst.Spec, core.Options{
		Policy:     w.policy,
		Seeds:      seeds,
		Rand:       rand.New(rand.NewSource(seed)),
		Dict:       inst.Info.Dict,
		SnapBudget: experiments.DefaultSnapBudget,
	})
}

func (w *workload) campaignConfig(seed int64) campaign.Config {
	return campaign.Config{
		Target:       w.target,
		Workers:      w.workers,
		Policy:       w.policy,
		Seed:         seed,
		SyncInterval: time.Second,
		SnapBudget:   experiments.DefaultSnapBudget,
		SyncMode:     campaign.SyncLockstep,
	}
}

func (w *workload) runSolo(seed int64, traced bool, lg *ledger) *episode {
	ep := &episode{traced: traced, layers: map[string]float64{}}
	start := time.Now()
	inst, err := targets.Launch(w.target, targets.LaunchConfig{})
	if !lg.op(err, "launch") {
		return ep
	}
	var exec core.Executor = inst.Agent
	if traced {
		ep.rec = newRecorder()
		exec = &timedAgent{Agent: inst.Agent, rec: ep.rec}
	}
	f := w.newFuzzer(exec, inst, seed, inst.Seeds())
	if !lg.op(f.Step(), "seed import") {
		return ep
	}
	ep.setup = time.Since(start)

	// The timed loop: Fuzzer.Step until the virtual budget is spent.
	heap := newHeapSampler()
	heap.sample()
	execs0 := f.Execs()
	var steps uint64
	var loopFrom int64
	if traced {
		loopFrom = ep.rec.now()
	}
	rt0 := readRuntime()
	loopStart := time.Now()
	for f.Elapsed() < w.budget {
		ep.rec.nextRound()
		t0 := time.Now()
		id := ep.rec.begin(spanStep)
		err := f.Step()
		ep.rec.end(id)
		ep.steps = append(ep.steps, time.Since(t0))
		steps++
		heap.sample()
		if !lg.op(err, "Fuzzer.Step") {
			break
		}
	}
	ep.loopWall = time.Since(loopStart)
	ep.rt = readRuntime().sub(rt0)
	ep.peakHeap = heap.peak
	ep.execs = f.Execs() - execs0
	if traced {
		setSoloSpanLayers(ep, loopFrom, ep.rec.now())
	}

	ps := f.PoolStats()
	ep.crashes = f.Crashes
	ep.counts = counts{
		Execs: f.Execs(), Rounds: steps + 1, RootExecs: f.RootExecs(),
		SnapshotExecs: f.SnapshotExecs(), FullPrefixReexecs: f.FullPrefixReexecs(),
		PoolHits: ps.Hits, PoolMisses: ps.Misses,
		Edges: f.Coverage(), Queue: len(f.Queue), Crashes: len(f.Crashes),
	}
	setCoreLayers(ep, f, steps+1)
	setVMLayers(ep, inst)
	setPoolLayers(ep, ps, true)

	// Checkpoint phase: the solo fuzzer's resumable state is its corpus
	// (EncodeCorpus, the share-folder format) put as one tree.
	st, err := store.Open("mem://perfbench")
	if !lg.op(err, "open store") {
		return ep
	}
	tree := "solo-" + w.name
	var puts, gets []time.Duration
	for i := 0; i < w.ckptReps; i++ {
		t0 := time.Now()
		id := ep.rec.begin(spanSoloCheckpoint)
		enc := store.Tree(f.EncodeCorpus())
		p0 := time.Now()
		pid := ep.rec.begin(spanPutTree)
		err := st.PutTree(tree, enc)
		ep.rec.end(pid)
		puts = append(puts, time.Since(p0))
		ep.rec.end(id)
		ep.ckpts = append(ep.ckpts, time.Since(t0))
		if !lg.op(err, "checkpoint") {
			return ep
		}
	}

	// Resume phase: read the tree back and build a fresh fuzzer on it.
	var resumed *core.Fuzzer
	for i := 0; i < w.resumeReps; i++ {
		t0 := time.Now()
		id := ep.rec.begin(spanSoloResume)
		g0 := time.Now()
		gid := ep.rec.begin(spanGetTree)
		got, err := st.GetTree(tree)
		ep.rec.end(gid)
		gets = append(gets, time.Since(g0))
		var seeds []*spec.Input
		if err == nil {
			seeds, err = core.DecodeCorpus(got)
		}
		var rinst *targets.Instance
		if err == nil {
			rinst, err = targets.Launch(w.target, targets.LaunchConfig{})
		}
		if err == nil {
			resumed = w.newFuzzer(rinst.Agent, rinst, seed, seeds)
			lg.check(len(seeds) == len(f.Queue)+len(f.Crashes),
				"stored corpus holds %d inputs, live fuzzer %d queued + %d crashes", len(seeds), len(f.Queue), len(f.Crashes))
		}
		ep.rec.end(id)
		ep.resumes = append(ep.resumes, time.Since(t0))
		if !lg.op(err, "resume") {
			return ep
		}
	}
	setStoreLayers(ep, puts, gets)
	if resumed != nil {
		lg.op(resumed.Step(), "resumed Fuzzer.Step")
	}
	return ep
}

func (w *workload) runCampaign(seed int64, traced bool, lg *ledger) *episode {
	ep := &episode{traced: traced, layers: map[string]float64{}}
	if traced {
		ep.rec = newRecorder()
	}
	start := time.Now()
	c, err := campaign.New(w.campaignConfig(seed))
	ep.setup = time.Since(start)
	if !lg.op(err, "campaign.New") {
		return ep
	}
	st, err := store.Open("mem://perfbench")
	if !lg.op(err, "open store") {
		return ep
	}
	tree := "campaign-" + w.name

	// The timed loop: one lockstep round, then a checkpoint into the
	// store, until the virtual budget is spent.
	heap := newHeapSampler()
	heap.sample()
	var encodes, puts, gets, decodes []time.Duration
	var ckptBytes int
	var loopFrom int64
	if traced {
		loopFrom = ep.rec.now()
	}
	rt0 := readRuntime()
	loopStart := time.Now()
	for c.Elapsed() < w.budget {
		ep.rec.nextRound()
		t0 := time.Now()
		id := ep.rec.begin(spanRound)
		err := c.RunFor(c.SyncInterval())
		ep.rec.end(id)
		ep.steps = append(ep.steps, time.Since(t0))
		if !lg.op(err, "Campaign.RunFor") {
			break
		}
		t0 = time.Now()
		id = ep.rec.begin(spanCheckpoint)
		t, err := c.CheckpointTree()
		encodes = append(encodes, time.Since(t0))
		if err == nil {
			p0 := time.Now()
			pid := ep.rec.begin(spanPutTree)
			err = st.PutTree(tree, t)
			ep.rec.end(pid)
			puts = append(puts, time.Since(p0))
			ckptBytes = treeBytes(t)
		}
		ep.rec.end(id)
		ep.ckpts = append(ep.ckpts, time.Since(t0))
		heap.sample()
		if !lg.op(err, "checkpoint") {
			break
		}
	}
	ep.loopWall = time.Since(loopStart)
	ep.rt = readRuntime().sub(rt0)
	ep.peakHeap = heap.peak
	ep.execs = c.Execs()
	if traced {
		setCampaignSpanLayers(ep, loopFrom, ep.rec.now())
	}

	ps := c.PoolStats()
	ss := c.SyncStats()
	ep.crashes = c.Crashes()
	ep.counts = counts{
		Execs: c.Execs(), Rounds: uint64(c.Rounds()), RootExecs: c.RootExecs(),
		FullPrefixReexecs: c.FullPrefixReexecs(), PoolHits: ps.Hits, PoolMisses: ps.Misses,
		Edges: c.Coverage(), Crashes: len(ep.crashes), Corpus: c.CorpusSize(),
		Deduped: c.Deduped(), CkptBytes: ckptBytes,
	}
	var roundWall time.Duration
	for _, d := range ep.steps {
		roundWall += d
	}
	ep.layers["core.execs"] = float64(c.Execs())
	ep.layers["core.root_execs"] = float64(c.RootExecs())
	ep.layers["core.full_prefix_reexecs"] = float64(c.FullPrefixReexecs())
	setPoolLayers(ep, ps, false)
	ep.layers["campaign.round_ms"] = median(seconds(ep.steps)) * 1e3
	ep.layers["campaign.sync_share"] = ratio(ss.SyncWall.Seconds(), roundWall.Seconds())
	ep.layers["campaign.sync_epochs"] = float64(ss.Epochs)
	ep.layers["campaign.corpus"] = float64(c.CorpusSize())
	ep.layers["campaign.deduped"] = float64(c.Deduped())
	ep.layers["campaign.ckpt_encode_ms"] = median(seconds(encodes)) * 1e3
	ep.layers["campaign.ckpt_bytes"] = float64(ckptBytes)

	// The stored tree must describe the live campaign.
	got, err := st.GetTree(tree)
	if lg.op(err, "GetTree") {
		sum, err := campaign.Summarize(got)
		if lg.op(err, "Summarize") {
			lg.check(sum.Edges == c.Coverage() && sum.Corpus == c.CorpusSize() &&
				sum.Crashes == len(ep.crashes) && sum.Workers == c.Workers(),
				"stored summary %+v does not match live campaign (edges %d, corpus %d, crashes %d, workers %d)",
				sum, c.Coverage(), c.CorpusSize(), len(ep.crashes), c.Workers())
		}
	}

	// Resume phase: GetTree + ResumeTree from the final tree.
	var resumed *campaign.Campaign
	for i := 0; i < w.resumeReps; i++ {
		t0 := time.Now()
		id := ep.rec.begin(spanResume)
		gid := ep.rec.begin(spanGetTree)
		got, err := st.GetTree(tree)
		ep.rec.end(gid)
		gets = append(gets, time.Since(t0))
		if err == nil {
			d0 := time.Now()
			resumed, err = campaign.ResumeTree(got)
			decodes = append(decodes, time.Since(d0))
		}
		ep.rec.end(id)
		ep.resumes = append(ep.resumes, time.Since(t0))
		if !lg.op(err, "resume") {
			return ep
		}
	}
	setStoreLayers(ep, puts, gets)
	ep.layers["campaign.resume_decode_ms"] = median(seconds(decodes)) * 1e3
	if resumed != nil {
		rounds, elapsed := resumed.Rounds(), resumed.Elapsed()
		if lg.op(resumed.RunFor(resumed.SyncInterval()), "resumed Campaign.RunFor") {
			lg.check(resumed.Rounds() == rounds+1 && resumed.Elapsed() > elapsed,
				"resumed campaign did not complete a round (rounds %d -> %d)", rounds, resumed.Rounds())
		}
	}
	return ep
}

func treeBytes(t store.Tree) int {
	n := 0
	for _, b := range t {
		n += len(b)
	}
	return n
}
