package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/snappool"
	"repro/internal/targets"
)

// metricDef names a metric, its unit, and which way is better.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the fuzzer sees, measured with
// tracing off. Every workload reports every one of them (see README.md
// for what "step" means on the campaign workload).
var endToEnd = []metricDef{
	{"execs_per_s", "1/s", "higher"},
	{"edges", "count", "higher"},
	{"step_p50_us", "us", "lower"},
	{"step_p90_us", "us", "lower"},
	{"ckpt_p50_ms", "ms", "lower"},
	{"resume_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_heap_mb", "MB", "lower"},
}

// perLayer are the single-layer metrics of a traced run, named after the
// repository's packages. A metric a workload cannot reach from outside
// the program is reported as 0 and printed as n/a.
var perLayer = []metricDef{
	{"core.execs", "count", "higher"},
	{"core.rounds", "count", "higher"},
	{"core.root_execs", "count", "higher"},
	{"core.snapshot_execs", "count", "higher"},
	{"core.full_prefix_reexecs", "count", "lower"},
	{"core.self_share", "frac", "lower"},
	{"core.self_ns_per_exec", "ns", "lower"},
	{"core.step_p99_us", "us", "lower"},
	{"netemu.run_from_root_calls", "count", "higher"},
	{"netemu.run_from_root_ns", "ns", "lower"},
	{"netemu.run_from_snapshot_calls", "count", "higher"},
	{"netemu.run_from_snapshot_ns", "ns", "lower"},
	{"netemu.run_creating_slot_calls", "count", "lower"},
	{"netemu.run_creating_slot_ns", "ns", "lower"},
	{"netemu.share", "frac", "lower"},
	{"vm.restore_ns", "ns", "lower"},
	{"vm.restores", "count", "higher"},
	{"vm.inc_creates", "count", "lower"},
	{"vm.pages_cow_broken", "count", "lower"},
	{"vm.eager_hit_rate", "frac", "higher"},
	{"snappool.hits", "count", "higher"},
	{"snappool.misses", "count", "lower"},
	{"snappool.hit_rate", "frac", "higher"},
	{"snappool.evictions", "count", "lower"},
	{"snappool.peak_bytes", "bytes", "lower"},
	{"snappool.lookup_ns", "ns", "lower"},
	{"campaign.round_ms", "ms", "lower"},
	{"campaign.sync_share", "frac", "lower"},
	{"campaign.sync_epochs", "count", "higher"},
	{"campaign.corpus", "count", "higher"},
	{"campaign.deduped", "count", "lower"},
	{"campaign.ckpt_encode_ms", "ms", "lower"},
	{"campaign.ckpt_bytes", "bytes", "lower"},
	{"campaign.resume_decode_ms", "ms", "lower"},
	{"store.put_tree_ms", "ms", "lower"},
	{"store.get_tree_ms", "ms", "lower"},
	{"runtime.gc_cpu_share", "frac", "lower"},
	{"runtime.alloc_bytes_per_exec", "bytes", "lower"},
	{"trace.overhead", "frac", "lower"},
	{"trace.span_coverage", "frac", "higher"},
}

// predictedZero are the layer metrics that must read exactly 0 on a
// workload with PolicyNone: the pool and the incremental slots are
// bypassed, every exec restores the root.
var predictedZero = []string{
	"core.snapshot_execs",
	"core.full_prefix_reexecs",
	"netemu.run_from_snapshot_calls",
	"netemu.run_creating_slot_calls",
	"vm.inc_creates",
	"snappool.hits",
	"snappool.misses",
	"snappool.hit_rate",
	"snappool.evictions",
	"snappool.peak_bytes",
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func setCoreLayers(ep *episode, f *core.Fuzzer, rounds uint64) {
	ep.layers["core.execs"] = float64(f.Execs())
	ep.layers["core.rounds"] = float64(rounds)
	ep.layers["core.root_execs"] = float64(f.RootExecs())
	ep.layers["core.snapshot_execs"] = float64(f.SnapshotExecs())
	ep.layers["core.full_prefix_reexecs"] = float64(f.FullPrefixReexecs())
}

func setVMLayers(ep *episode, inst *targets.Instance) {
	ms := inst.M.Stats()
	restores := ms.RootRestores + ms.IncRestores
	ep.layers["vm.restore_ns"] = ratio(float64(ms.RestoreWall.Nanoseconds()), float64(restores))
	ep.layers["vm.restores"] = float64(restores)
	ep.layers["vm.inc_creates"] = float64(ms.IncCreates)
	ep.layers["vm.pages_cow_broken"] = float64(ms.PagesCoWBroken)
	ep.layers["vm.eager_hit_rate"] = ratio(float64(ms.EagerHits), float64(ms.EagerHits+ms.EagerMisses))
}

// setPoolLayers records the pool counters. The campaign's aggregated
// stats carry no lookup timing, so lookup_ns is set only when measured.
func setPoolLayers(ep *episode, ps snappool.Stats, withLookup bool) {
	ep.layers["snappool.hits"] = float64(ps.Hits)
	ep.layers["snappool.misses"] = float64(ps.Misses)
	ep.layers["snappool.hit_rate"] = ratio(float64(ps.Hits), float64(ps.Hits+ps.Misses))
	ep.layers["snappool.evictions"] = float64(ps.Evictions)
	ep.layers["snappool.peak_bytes"] = float64(ps.PeakBytes)
	if withLookup {
		ep.layers["snappool.lookup_ns"] = ratio(float64(ps.LookupWall.Nanoseconds()), float64(ps.Lookups))
	}
}

func setStoreLayers(ep *episode, puts, gets []time.Duration) {
	ep.layers["store.put_tree_ms"] = median(seconds(puts)) * 1e3
	ep.layers["store.get_tree_ms"] = median(seconds(gets)) * 1e3
}

// setSoloSpanLayers derives the core and netemu shares from the spans of
// the timed loop [from, to]: core's self time is Fuzzer.Step wall minus
// the wall of the executor calls inside it.
func setSoloSpanLayers(ep *episode, from, to int64) {
	t := ep.rec.totals(from, to)
	step := float64(t.wall[spanStep])
	self := step - float64(t.childNs[spanStep])
	ep.layers["core.self_share"] = ratio(self, step)
	ep.layers["core.self_ns_per_exec"] = ratio(self, float64(ep.execs))
	for _, n := range []struct {
		span int
		name string
	}{
		{spanRunFromRoot, "netemu.run_from_root"},
		{spanRunFromSnapshot, "netemu.run_from_snapshot"},
		{spanRunCreatingSlot, "netemu.run_creating_slot"},
	} {
		ep.layers[n.name+"_calls"] = float64(t.calls[n.span])
		ep.layers[n.name+"_ns"] = ratio(float64(t.wall[n.span]), float64(t.calls[n.span]))
	}
	ep.layers["netemu.share"] = ratio(float64(t.childNs[spanStep]), step)
	ep.layers["trace.span_coverage"] = ratio(float64(t.topLevel), float64(to-from))
}

func setCampaignSpanLayers(ep *episode, from, to int64) {
	t := ep.rec.totals(from, to)
	ep.layers["trace.span_coverage"] = ratio(float64(t.topLevel), float64(to-from))
}
