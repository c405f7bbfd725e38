package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestTracedEpisodeMatchesUntraced checks that the timing decorator
// changes nothing the fuzzer decides: a traced and an untraced episode of
// one seed make the same executions, reach the same edges and use the
// snapshot pool identically. An executor that failed core.New's
// SlotExecutor assertion would run with the pool disabled and fail here.
func TestTracedEpisodeMatchesUntraced(t *testing.T) {
	w, err := lookupWorkload("snap-bftpd")
	if err != nil {
		t.Fatal(err)
	}
	short := *w
	short.budget = 5 * time.Second
	short.ckptReps, short.resumeReps = 1, 1

	lg := &ledger{}
	plain := short.run(planned{seed: 7, traced: false}, lg)
	traced := short.run(planned{seed: 7, traced: true}, lg)
	if lg.failed != 0 {
		t.Fatalf("episodes failed: %v", lg.failures)
	}
	if plain.counts != traced.counts {
		t.Errorf("traced counts %+v, untraced %+v", traced.counts, plain.counts)
	}
	for _, m := range []string{"core.execs", "snappool.hits", "snappool.misses"} {
		if plain.layers[m] != traced.layers[m] {
			t.Errorf("%s: traced %v, untraced %v", m, traced.layers[m], plain.layers[m])
		}
	}
	if traced.counts.PoolHits == 0 || traced.layers["netemu.run_from_snapshot_calls"] == 0 {
		t.Errorf("traced episode did not resume from pooled snapshots (hits %d, run_from_snapshot calls %v)",
			traced.counts.PoolHits, traced.layers["netemu.run_from_snapshot_calls"])
	}
	if cov := traced.layers["trace.span_coverage"]; cov < 0.95 {
		t.Errorf("spans cover %.3f of the timed loop, want >= 0.95", cov)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json, which declares the
// metrics to the outside, in step with the metrics the command reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, perfbench reports %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit || got[i].Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, perfbench %+v", kind, i, got[i], m)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, perfbench has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, perfbench %q", i, decl.Workloads[i].Name, w.name)
		}
	}
}
