package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/netemu"
	"repro/internal/spec"
)

// Span names. Spans are recorded from this package only, around the calls
// it makes into each layer; spans inside the program are not recorded.
const (
	spanStep            = iota // core.step: one Fuzzer.Step
	spanRunFromRoot            // netemu.run_from_root
	spanRunSuffix              // netemu.run_suffix (single-slot mode)
	spanRunFromSnapshot        // netemu.run_from_snapshot (pool hit or post-creation round)
	spanRunCreatingSlot        // netemu.run_creating_slot (pool miss)
	spanSoloCheckpoint         // core.checkpoint: EncodeCorpus + PutTree
	spanSoloResume             // core.resume: GetTree + DecodeCorpus + Launch + core.New
	spanRound                  // campaign.round: Campaign.RunFor(SyncInterval)
	spanCheckpoint             // campaign.checkpoint: CheckpointTree + PutTree
	spanResume                 // campaign.resume: GetTree + ResumeTree
	spanPutTree                // store.put_tree
	spanGetTree                // store.get_tree
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"core.step",
	"netemu.run_from_root",
	"netemu.run_suffix",
	"netemu.run_from_snapshot",
	"netemu.run_creating_slot",
	"core.checkpoint",
	"core.resume",
	"campaign.round",
	"campaign.checkpoint",
	"campaign.resume",
	"store.put_tree",
	"store.get_tree",
}

// span is one timed call. Start and End are nanoseconds since the
// recorder's origin; Parent is 0 for a top-level span; Round is the
// closed-loop round (Fuzzer.Step or campaign round) the span belongs to.
type span struct {
	Start, End int64
	Parent     int32
	Round      int32
	Name       uint8
}

// recorder keeps the spans of one episode in memory. Spans nest: a span
// started while another is open becomes its child. Not safe for concurrent
// use; the benchmark records only from the goroutine that runs the loop.
type recorder struct {
	origin time.Time
	spans  []span
	open   int32 // id (index+1) of the innermost open span, 0 when none
	round  int32
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its id. A nil recorder records nothing,
// so untraced code paths call it unconditionally.
func (r *recorder) begin(name int) int32 {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{
		Start:  int64(time.Since(r.origin)),
		Parent: r.open,
		Round:  r.round,
		Name:   uint8(name),
	})
	r.open = int32(len(r.spans))
	return r.open
}

// end closes span id.
func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	s := &r.spans[id-1]
	s.End = int64(time.Since(r.origin))
	r.open = s.Parent
}

// nextRound starts a new closed-loop round; spans begun after it carry
// its id.
func (r *recorder) nextRound() {
	if r != nil {
		r.round++
	}
}

// spanTotals sums the spans inside one time window: calls and wall per
// span name, the wall of direct children by their parent's name (a span's
// self time is its wall minus its children's), and the wall the window's
// top-level spans cover.
type spanTotals struct {
	calls    [numSpanNames]uint64
	wall     [numSpanNames]int64
	childNs  [numSpanNames]int64
	topLevel int64
}

// totals sums the spans that lie inside [from, to] on the recorder clock.
func (r *recorder) totals(from, to int64) spanTotals {
	var t spanTotals
	for _, s := range r.spans {
		if s.Start < from || s.End > to {
			continue
		}
		d := s.End - s.Start
		t.calls[s.Name]++
		t.wall[s.Name] += d
		if s.Parent != 0 {
			t.childNs[r.spans[s.Parent-1].Name] += d
		} else {
			t.topLevel += d
		}
	}
	return t
}

// now reads the recorder clock, for windows passed to totals.
func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// traceFile is the JSON written at exit: the run's stamp, the span name
// table, and the spans of the first traced episode as rows
// [id, parent, round, name, start_ns, end_ns].
type traceFile struct {
	Stamp stamp      `json:"stamp"`
	Names []string   `json:"names"`
	Spans [][6]int64 `json:"spans"`
}

func writeTrace(path string, st stamp, r *recorder) error {
	tf := traceFile{Stamp: st, Names: spanNames[:], Spans: make([][6]int64, len(r.spans))}
	for i, s := range r.spans {
		tf.Spans[i] = [6]int64{int64(i + 1), int64(s.Parent), int64(s.Round), int64(s.Name), s.Start, s.End}
	}
	enc, err := json.Marshal(&tf)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// timedAgent is the timing decorator around *netemu.Agent: it records a
// span around every execution call and forwards everything else. It must
// implement all of core.SlotExecutor — core.New silently disables the
// snapshot pool for an executor that does not, which would change what the
// traced run measures.
type timedAgent struct {
	*netemu.Agent
	rec *recorder
}

var _ core.SlotExecutor = (*timedAgent)(nil)

func (a *timedAgent) RunFromRoot(in *spec.Input, tr *coverage.Trace) (netemu.Result, error) {
	id := a.rec.begin(spanRunFromRoot)
	res, err := a.Agent.RunFromRoot(in, tr)
	a.rec.end(id)
	return res, err
}

func (a *timedAgent) RunSuffix(in *spec.Input, tr *coverage.Trace) (netemu.Result, error) {
	id := a.rec.begin(spanRunSuffix)
	res, err := a.Agent.RunSuffix(in, tr)
	a.rec.end(id)
	return res, err
}

func (a *timedAgent) RunFromSnapshot(slot int, in *spec.Input, tr *coverage.Trace) (netemu.Result, error) {
	id := a.rec.begin(spanRunFromSnapshot)
	res, err := a.Agent.RunFromSnapshot(slot, in, tr)
	a.rec.end(id)
	return res, err
}

func (a *timedAgent) RunCreatingSlot(in *spec.Input, tr *coverage.Trace, fromSlot, newSlot int) (netemu.Result, error) {
	id := a.rec.begin(spanRunCreatingSlot)
	res, err := a.Agent.RunCreatingSlot(in, tr, fromSlot, newSlot)
	a.rec.end(id)
	return res, err
}
