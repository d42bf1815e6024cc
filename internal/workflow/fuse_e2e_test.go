package workflow

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/components"
	"repro/internal/fault"
	"repro/internal/flexpath"
	"repro/internal/obs"
	"repro/internal/obs/tracetest"
	"repro/internal/sb"

	_ "repro/internal/sim/gtcp"
	_ "repro/internal/sim/lammps"
)

// fuseSpecT applies the fusion pass to a spec and requires it to fuse
// at least one chain.
func fuseSpecT(t *testing.T, spec Spec) *FusedSpec {
	t.Helper()
	plan, err := BuildPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	fused, err := plan.Fuse()
	if err != nil {
		t.Fatal(err)
	}
	if len(fused.Groups) == 0 {
		t.Fatal("no fusable chains in spec")
	}
	return fused
}

func newHistT(t *testing.T, args ...string) *components.Histogram {
	t.Helper()
	h, err := components.NewHistogram(args)
	if err != nil {
		t.Fatal(err)
	}
	return h.(*components.Histogram)
}

// TestFusionEquivalenceLAMMPS is the optimizer's correctness contract:
// the Fig. 8 pipeline run componentized and run fused (select+magnitude
// collapsed into one stage, sel.fp never touching the broker) must
// produce byte-identical histograms — the sims are deterministically
// seeded, so any divergence is a fusion bug, not noise. The same holds
// for a rank-count change: select+magnitude re-partitioned over 3 ranks
// instead of the scripted 2 must not move a single bin.
func TestFusionEquivalenceLAMMPS(t *testing.T) {
	histA := newHistT(t, "velos.fp", "velocities", "16")
	runT(t, lammpsWorkflowSpec(histA))

	histR := newHistT(t, "velos.fp", "velocities", "16")
	respec := lammpsWorkflowSpec(histR)
	for i := range respec.Stages {
		if c := respec.Stages[i].Component; c == "select" || c == "magnitude" {
			respec.Stages[i].Procs = 3
		}
	}
	runT(t, respec)
	if a, r := histA.Results(), histR.Results(); len(a) == 0 || !reflect.DeepEqual(a, r) {
		t.Fatalf("rank-count change diverged:\n2 ranks: %+v\n3 ranks: %+v", a, r)
	}

	histB := newHistT(t, "velos.fp", "velocities", "16")
	fused := fuseSpecT(t, lammpsWorkflowSpec(histB))
	if strings.Join(fused.Groups[0].Parts, "+") != "select+magnitude" {
		t.Fatalf("fused groups = %+v", fused.Groups)
	}
	res := runT(t, fused.Spec)

	a, b := histA.Results(), histB.Results()
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("fused output diverged:\nunfused: %+v\nfused:   %+v", a, b)
	}

	// Per-component metrics survive fusion: each part keeps its own
	// comp.<name> identity with one sample per timestep.
	for _, name := range []string{"select", "magnitude"} {
		m := res.Metrics(name)
		if m == nil {
			t.Fatalf("fused run lost metrics for %q", name)
		}
		if steps := m.Steps(); len(steps) != len(a) {
			t.Fatalf("%s recorded %d steps, want %d", name, len(steps), len(a))
		}
	}
	// The report names the fused stage and its parts.
	report := Report(res)
	for _, want := range []string{"select+magnitude", "(fused)"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

// TestFusionEquivalenceGTCP fuses a three-part chain
// (select+dim-reduce+dim-reduce) whose dr1→dr2 handoff is partition-
// misaligned at 2 ranks (dim-reduce reserves the axis the previous
// stage partitioned), so the ranks' box assembly from the gathered
// blocks — not just the in-place fast path — is what's proven
// byte-identical here.
func TestFusionEquivalenceGTCP(t *testing.T) {
	gtcpSpec := func(hist *components.Histogram) Spec {
		return Spec{
			Name: "gtcp-pressure",
			Stages: []Stage{
				{Component: "gtcp", Args: []string{"gtcp.fp", "grid", "8", "32", "3"}, Procs: 2},
				{Component: "select", Args: []string{"gtcp.fp", "grid", "2", "psel.fp", "press", "pressure_perp"}, Procs: 2},
				{Component: "dim-reduce", Args: []string{"psel.fp", "press", "2", "1", "dr1.fp", "press2"}, Procs: 2},
				{Component: "dim-reduce", Args: []string{"dr1.fp", "press2", "0", "1", "flat.fp", "pressures"}, Procs: 2},
				{Instance: hist, Procs: 1},
			},
		}
	}
	histA := newHistT(t, "flat.fp", "pressures", "12")
	runT(t, gtcpSpec(histA))

	histB := newHistT(t, "flat.fp", "pressures", "12")
	fused := fuseSpecT(t, gtcpSpec(histB))
	g := fused.Groups[0]
	if strings.Join(g.Parts, "+") != "select+dim-reduce+dim-reduce" {
		t.Fatalf("fused groups = %+v", fused.Groups)
	}
	if len(g.Elided) != 2 {
		t.Fatalf("elided streams = %v", g.Elided)
	}
	runT(t, fused.Spec)

	a, b := histA.Results(), histB.Results()
	if len(a) != 3 || !reflect.DeepEqual(a, b) {
		t.Fatalf("fused output diverged:\nunfused: %+v\nfused:   %+v", a, b)
	}
}

// TestFusionPreservesSpans proves observability survives fusion: the
// fused stage emits the same per-component stage.step and
// kernel.transform spans an unfused run would — one stage.step per
// (part, step, rank), each kernel.transform parented under its part's
// step span, attributed to the part's own stream.
func TestFusionPreservesSpans(t *testing.T) {
	const steps, procs = 4, 2
	hist := newHistT(t, "velos.fp", "velocities", "16")
	fused := fuseSpecT(t, lammpsWorkflowSpec(hist))

	tr := obs.NewTracer(0)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := Run(ctx, transport(), fused.Spec, Options{Tracer: tr}); err != nil {
		t.Fatal(err)
	}

	spans := tracetest.FromTracer(tr)
	noteIs := func(name string) tracetest.Pred {
		return func(s obs.Span) bool { return s.Note == name }
	}
	for _, part := range []struct{ name, stream string }{
		{"select", "dump.custom.fp"},
		{"magnitude", "lmpselect.fp"},
	} {
		tracetest.ExpectCount(t, spans, steps*procs,
			tracetest.OfKind(obs.KindStageStep), noteIs(part.name), tracetest.OnStream(part.stream))
		tracetest.ExpectCount(t, spans, steps*procs,
			tracetest.OfKind(obs.KindKernelTransform), noteIs(part.name))
		n := tracetest.ExpectParented(t, spans,
			tracetest.And(tracetest.OfKind(obs.KindKernelTransform), noteIs(part.name)),
			tracetest.And(tracetest.OfKind(obs.KindStageStep), noteIs(part.name)))
		if n != steps*procs {
			t.Fatalf("%s: %d parented transforms, want %d", part.name, n, steps*procs)
		}
	}
	// The elided stream carries no broker traffic, but its component
	// spans above prove the stages still ran — fusion trades transport,
	// not visibility.
}

// TestStageStepContainsInputRelease checks the trace's ring order per
// (rank, step): a map stage's stage.step span settles after the input
// release, so reader.release is emitted before it — for an unfused
// stage (select, magnitude) and for the last part of a fused chain
// (magnitude in select+magnitude), whose step ends the chain's step.
func TestStageStepContainsInputRelease(t *testing.T) {
	const steps, procs = 4, 2
	noteIs := func(name string) tracetest.Pred {
		return func(s obs.Span) bool { return s.Note == name }
	}
	cases := []struct {
		name string
		fuse bool
		// release names the stream whose release each stage.step of
		// component must follow.
		release map[string]string
	}{
		{"unfused", false, map[string]string{"select": "dump.custom.fp", "magnitude": "lmpselect.fp"}},
		{"fused", true, map[string]string{"magnitude": "dump.custom.fp"}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			spec := lammpsWorkflowSpec(newHistT(t, "velos.fp", "velocities", "16"))
			if c.fuse {
				spec = fuseSpecT(t, spec).Spec
			}
			broker := flexpath.NewBroker()
			tr := obs.NewTracer(0)
			broker.SetObserver(tr, nil)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			if _, err := Run(ctx, sb.Fabric{T: flexpath.InProc{B: broker}}, spec, Options{Tracer: tr}); err != nil {
				t.Fatal(err)
			}
			if tr.Dropped() != 0 {
				t.Fatalf("tracer dropped %d spans; emit-order assertions would be unsound", tr.Dropped())
			}
			spans := tracetest.FromTracer(tr)
			for comp, stream := range c.release {
				for rank := 0; rank < procs; rank++ {
					for step := 0; step < steps; step++ {
						at := tracetest.And(tracetest.ByRank(rank), tracetest.AtStep(step))
						tracetest.ExpectAllBefore(t, spans,
							tracetest.And(tracetest.OfKind(obs.KindReaderRelease), tracetest.OnStream(stream), at),
							tracetest.And(tracetest.OfKind(obs.KindStageStep), noteIs(comp), at))
					}
				}
			}
		})
	}
}

// TestFusedStageRestart injects reader-side faults into a workflow
// whose select+magnitude chain is fused and supervises it: the fused
// stage must restart like any other stage and still deliver every
// timestep exactly once downstream.
func TestFusedStageRestart(t *testing.T) {
	const steps = 8
	hist := newHistT(t, "velos.fp", "velocities", "8")
	spec := Spec{
		Name: "fused-faults",
		Stages: []Stage{
			{Instance: hist, Procs: 1},
			// Single-rank chain, so every handoff is in place;
			// TestChaosFusedExchangeRestart restarts a two-rank chain
			// whose ranks exchange blocks.
			{Component: "magnitude", Args: []string{"sel.fp", "lmpsel", "velos.fp", "velocities"}, Procs: 1},
			{Component: "select", Args: []string{"dump.fp", "atoms", "1", "sel.fp", "lmpsel", "vx", "vy", "vz"}, Procs: 1},
			{Component: "lammps", Args: []string{"dump.fp", "atoms", "200", "8", "7"}, Procs: 2},
		},
	}
	fused := fuseSpecT(t, spec)
	if strings.Join(fused.Groups[0].Parts, "+") != "select+magnitude" {
		t.Fatalf("fused groups = %+v", fused.Groups)
	}

	ft := fault.New(transport(), fault.Plan{
		Seed:      20260805,
		ErrRate:   0.15,
		ResetRate: 0.05,
		Ops:       map[fault.Op]bool{fault.OpStepMeta: true, fault.OpFetchBlock: true},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Run(ctx, ft, fused.Spec, Options{
		Restart: RestartPolicy{MaxRestarts: 100, Backoff: time.Millisecond, StepTimeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatalf("fused run failed despite supervision: %v\n%s", err, Report(res))
	}
	totalRestarts := 0
	for _, sr := range res.Stages {
		totalRestarts += sr.Restarts
	}
	if totalRestarts == 0 {
		t.Fatal("fault plan injected no restarts; raise ErrRate or change the seed")
	}
	results := hist.Results()
	if len(results) != steps {
		t.Fatalf("histogram saw %d steps, want %d", len(results), steps)
	}
	for s, r := range results {
		if r.Total != 200 {
			t.Fatalf("step %d histogrammed %d particles, want 200", s, r.Total)
		}
	}
}
