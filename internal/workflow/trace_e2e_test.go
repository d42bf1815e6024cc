package workflow

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/flexpath"
	"repro/internal/obs"
	"repro/internal/obs/tracetest"
	"repro/internal/sb"

	_ "repro/internal/sim/lammps" // registers the "lammps" component
)

// TestTraceProvesPipelineGuarantees runs the paper's sim → magnitude →
// histogram shape under injected reader-side faults with supervision,
// then proves the fabric's guarantees from the trace alone — no
// component output is consulted:
//
//   - exactly-once delivery: every (stream, step, writer rank) is
//     published into the broker exactly once, restarts notwithstanding;
//   - pooled-buffer safety: every fetch of a step precedes the step's
//     retirement, and the retired buffer generation is the very
//     incarnation the fetches saw (retire-after-last-fetch);
//   - correct resume: each writer rank's publish steps form one
//     consecutive sequence across restart epochs — no gap, no replay.
//
// Faults are injected only into reader-side operations (step-meta,
// fetch): the restart machinery under test is the supervised consumer
// stages'. Producer restarts are TestChaosResumeIsExactlyOnce's.
func TestTraceProvesPipelineGuarantees(t *testing.T) {
	// Magnitude and histogram run single-rank: each extra reader rank
	// adds fault draws per step, and at these error rates a consumer
	// that restarts that often can stall the producer past its step
	// timeout.
	const (
		steps     = 8
		simProcs  = 2
		magProcs  = 1
		histProcs = 1
	)
	broker := flexpath.NewBroker()
	tr := obs.NewTracer(0)
	reg := obs.NewRegistry()
	broker.SetObserver(tr, reg)

	histPath := filepath.Join(t.TempDir(), "hist.txt")
	spec := Spec{
		Name: "traced",
		Stages: []Stage{
			{Component: "lammps", Args: []string{"dump.fp", "atoms", "200", fmt.Sprint(steps), "7"}, Procs: simProcs},
			{Component: "magnitude", Args: []string{"dump.fp", "atoms", "mag.fp", "mag"}, Procs: magProcs},
			{Component: "histogram", Args: []string{"mag.fp", "mag", "8", histPath}, Procs: histProcs},
		},
	}
	ft := fault.New(sb.Fabric{T: flexpath.InProc{B: broker}}, fault.Plan{
		Seed:      20250805,
		ErrRate:   0.18,
		ResetRate: 0.05,
		Ops:       map[fault.Op]bool{fault.OpStepMeta: true, fault.OpFetchBlock: true},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Run(ctx, ft, spec, Options{
		Tracer:   tr,
		Registry: reg,
		Restart:  RestartPolicy{MaxRestarts: 100, Backoff: time.Millisecond, StepTimeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatalf("traced run failed despite supervision: %v\n%s", err, Report(res))
	}
	totalRestarts := 0
	for _, sr := range res.Stages {
		totalRestarts += sr.Restarts
	}
	if totalRestarts == 0 {
		t.Fatalf("plan injected no recoverable faults — trace proves nothing about recovery\n%s", Report(res))
	}

	if tr.Dropped() != 0 {
		t.Fatalf("tracer dropped %d spans; emit-order assertions would be unsound", tr.Dropped())
	}
	spans := tracetest.FromTracer(tr)
	t.Logf("%d restarts, %d spans: %s", totalRestarts, len(spans), tracetest.Summary(spans))

	streams := map[string]int{"dump.fp": simProcs, "mag.fp": magProcs}
	for stream, writers := range streams {
		// Exactly-once delivery per (stream, step, writer rank), and each
		// writer rank's steps consecutive from 0 — the resume proof: a
		// restarted stage that replayed or skipped a step breaks one of
		// these.
		pubs := tracetest.ExactlyOncePer(t, spans, tracetest.StepRankKey,
			tracetest.OfKind(obs.KindWriterPublish), tracetest.OnStream(stream))
		if want := steps * writers; len(pubs) != want {
			t.Fatalf("stream %s: %d publishes, want %d", stream, len(pubs), want)
		}
		for rank := 0; rank < writers; rank++ {
			if next := tracetest.ExpectConsecutiveSteps(t, spans, 0,
				tracetest.OfKind(obs.KindWriterPublish), tracetest.OnStream(stream),
				tracetest.ByRank(rank)); next != steps {
				t.Fatalf("stream %s rank %d: publishes end at step %d, want %d", stream, rank, next-1, steps-1)
			}
		}
		// The broker sealed and retired each step exactly once.
		tracetest.ExactlyOncePer(t, spans, tracetest.StepKey,
			tracetest.OfKind(obs.KindBrokerStep), tracetest.OnStream(stream))
		tracetest.ExpectCount(t, spans, steps,
			tracetest.OfKind(obs.KindBrokerStep), tracetest.OnStream(stream))
		tracetest.ExpectCount(t, spans, steps,
			tracetest.OfKind(obs.KindBrokerRetire), tracetest.OnStream(stream))
		// Retire-after-last-fetch: every fetch of a step precedes its
		// retirement, and the rank-0 payload generation the fetches carry
		// is the one the retirement recycled — the buffer was never handed
		// back to the pool while a reader could still see it.
		for step := 0; step < steps; step++ {
			fetch := tracetest.And(tracetest.OfKind(obs.KindReaderFetch),
				tracetest.OnStream(stream), tracetest.AtStep(step))
			retire := tracetest.And(tracetest.OfKind(obs.KindBrokerRetire),
				tracetest.OnStream(stream), tracetest.AtStep(step))
			tracetest.ExpectAllBefore(t, spans, fetch, retire)
			ret := tracetest.ExpectSpan(t, spans, retire)
			for _, f := range spans.Where(fetch, tracetest.FromPeer(0)) {
				if f.Gen != ret.Gen {
					t.Fatalf("stream %s step %d: fetch saw gen %d but retire recycled gen %d (use-after-recycle)",
						stream, step, f.Gen, ret.Gen)
				}
			}
		}
	}

	// Causality: magnitude runs the RunMap loop, so its transport spans
	// hang off its stage.step spans and every step ran the kernel.
	tracetest.ExpectParented(t, spans,
		tracetest.And(tracetest.OfKind(obs.KindWriterPublish), tracetest.OnStream("mag.fp")),
		tracetest.OfKind(obs.KindStageStep))
	tracetest.ExpectParented(t, spans,
		tracetest.OfKind(obs.KindKernelTransform),
		tracetest.OfKind(obs.KindStageStep))

	// Every supervised restart left a stage.restart span, and at least
	// one post-restart epoch did real work.
	tracetest.ExpectCount(t, spans, totalRestarts, tracetest.OfKind(obs.KindStageRestart))
	tracetest.ExpectSpan(t, spans, tracetest.OfKind(obs.KindStageAttempt), tracetest.InEpoch(1))

	// A consumer stage that never restarted read each step exactly once
	// (at-least-once is all the fabric promises to restarted readers).
	readerStages := []struct {
		idx    int
		stream string
	}{{1, "dump.fp"}, {2, "mag.fp"}}
	for _, rs := range readerStages {
		if res.Stages[rs.idx].Restarts > 0 {
			continue
		}
		tracetest.ExactlyOncePer(t, spans,
			func(s obs.Span) string {
				return fmt.Sprintf("%s/%d/%d/%d", s.Stream, s.Step, s.Rank, s.Peer)
			},
			tracetest.OfKind(obs.KindReaderFetch), tracetest.OnStream(rs.stream))
	}

	// The registry saw the same totals the spans prove.
	snap := reg.Snapshot()
	if got, want := snap["fabric.steps_published"], int64(2*steps); got != want {
		t.Fatalf("fabric.steps_published = %d, want %d", got, want)
	}
	if got, want := snap["fabric.steps_retired"], int64(2*steps); got != want {
		t.Fatalf("fabric.steps_retired = %d, want %d", got, want)
	}
	if got := snap["workflow.restarts"]; got != int64(totalRestarts) {
		t.Fatalf("workflow.restarts = %d, want %d", got, totalRestarts)
	}
	if snap["fabric.queued_steps"] != 0 {
		t.Fatalf("fabric.queued_steps = %d after completion, want 0", snap["fabric.queued_steps"])
	}
}
