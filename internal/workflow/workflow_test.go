package workflow

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/components"
	"repro/internal/flexpath"
	"repro/internal/sb"

	_ "repro/internal/sim/gromacs"
	_ "repro/internal/sim/gtcp"
	_ "repro/internal/sim/lammps"
)

func transport() sb.Fabric {
	return sb.Fabric{T: flexpath.InProc{B: flexpath.NewBroker()}}
}

func runT(t *testing.T, spec Spec) *Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Run(ctx, transport(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSpecValidate(t *testing.T) {
	if err := (Spec{Name: "empty"}).Validate(); err == nil {
		t.Error("empty spec accepted")
	}
	if err := (Spec{Name: "x", Stages: []Stage{{Component: "select", Procs: 0}}}).Validate(); err == nil {
		t.Error("zero procs accepted")
	}
	if err := (Spec{Name: "x", Stages: []Stage{{Procs: 1}}}).Validate(); err == nil {
		t.Error("nameless stage accepted")
	}
}

func TestRunRejectsUnknownComponent(t *testing.T) {
	_, err := Run(context.Background(), transport(), Spec{
		Name:   "bad",
		Stages: []Stage{{Component: "no-such", Procs: 1}},
	}, Options{})
	if err == nil || !strings.Contains(err.Error(), "no-such") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunRejectsBadArgsBeforeLaunching(t *testing.T) {
	start := time.Now()
	_, err := Run(context.Background(), transport(), Spec{
		Name: "badargs",
		Stages: []Stage{
			{Component: "lammps", Args: []string{"s.fp", "atoms", "100", "2"}, Procs: 1},
			{Component: "histogram", Args: []string{"s.fp", "atoms", "zero"}, Procs: 1},
		},
	}, Options{})
	if err == nil {
		t.Fatal("bad histogram args accepted")
	}
	// Must fail synchronously, not by wedging the sim stage.
	if time.Since(start) > 2*time.Second {
		t.Fatal("argument validation was not synchronous")
	}
}

// lammpsWorkflowSpec is the paper's Fig. 8 pipeline at test scale.
func lammpsWorkflowSpec(hist *components.Histogram) Spec {
	return Spec{
		Name: "lammps-crack",
		Stages: []Stage{
			{Instance: hist, Procs: 1},
			{Component: "magnitude", Args: []string{"lmpselect.fp", "lmpsel", "velos.fp", "velocities"}, Procs: 2},
			{Component: "select", Args: []string{"dump.custom.fp", "atoms", "1", "lmpselect.fp", "lmpsel", "vx", "vy", "vz"}, Procs: 2},
			{Component: "lammps", Args: []string{"dump.custom.fp", "atoms", "300", "4"}, Procs: 3},
		},
	}
}

func TestLAMMPSWorkflowEndToEnd(t *testing.T) {
	hist, err := components.NewHistogram([]string{"velos.fp", "velocities", "16"})
	if err != nil {
		t.Fatal(err)
	}
	h := hist.(*components.Histogram)
	res := runT(t, lammpsWorkflowSpec(h))

	results := h.Results()
	if len(results) != 4 {
		t.Fatalf("histogram saw %d steps, want 4", len(results))
	}
	for s, r := range results {
		if r.Total != 300 {
			t.Fatalf("step %d histogrammed %d particles, want 300", s, r.Total)
		}
		if r.Min < 0 {
			t.Fatalf("step %d: velocity magnitude below zero: %v", s, r.Min)
		}
		if r.Max <= r.Min {
			t.Fatalf("step %d: degenerate distribution [%v, %v]", s, r.Min, r.Max)
		}
	}
	// The crack injects impulses: the velocity ceiling must grow once the
	// front starts breaking bonds.
	if results[len(results)-1].Max <= results[0].Max {
		t.Fatalf("crack did not widen the velocity distribution: first max %v, last max %v",
			results[0].Max, results[len(results)-1].Max)
	}
	if res.TotalProcs() != 8 {
		t.Fatalf("TotalProcs = %d", res.TotalProcs())
	}
	for _, name := range []string{"lammps", "select", "magnitude", "histogram"} {
		m := res.Metrics(name)
		if m == nil {
			t.Fatalf("no metrics for %s", name)
		}
		if len(m.Steps()) != 4 {
			t.Fatalf("%s metrics recorded %d steps", name, len(m.Steps()))
		}
	}
}

func TestGTCPWorkflowEndToEnd(t *testing.T) {
	// Fig. 6: gtcp → select(pressure_perp) → dim-reduce ×2 → histogram.
	hist, err := components.NewHistogram([]string{"flat.fp", "pressures", "12"})
	if err != nil {
		t.Fatal(err)
	}
	h := hist.(*components.Histogram)
	const slices, points, steps = 8, 32, 3
	spec := Spec{
		Name: "gtcp-pressure",
		Stages: []Stage{
			{Component: "gtcp", Args: []string{"gtcp.fp", "grid", "8", "32", "3"}, Procs: 2},
			{Component: "select", Args: []string{"gtcp.fp", "grid", "2", "psel.fp", "press", "pressure_perp"}, Procs: 2},
			{Component: "dim-reduce", Args: []string{"psel.fp", "press", "2", "1", "dr1.fp", "press2"}, Procs: 2},
			{Component: "dim-reduce", Args: []string{"dr1.fp", "press2", "0", "1", "flat.fp", "pressures"}, Procs: 2},
			{Instance: hist, Procs: 1},
		},
	}
	runT(t, spec)
	results := h.Results()
	if len(results) != steps {
		t.Fatalf("histogram saw %d steps, want %d", len(results), steps)
	}
	for s, r := range results {
		if r.Total != slices*points {
			t.Fatalf("step %d histogrammed %d pressures, want %d", s, r.Total, slices*points)
		}
		if r.Max <= r.Min {
			t.Fatalf("step %d: degenerate pressure distribution", s)
		}
		// Plasma pressure in the mini-app is positive.
		if r.Min < 0 {
			t.Fatalf("step %d: negative pressure %v", s, r.Min)
		}
	}
}

func TestGROMACSWorkflowEndToEnd(t *testing.T) {
	// Fig. 7: gromacs → magnitude → histogram (spread of |x|).
	hist, err := components.NewHistogram([]string{"dist.fp", "radii", "10"})
	if err != nil {
		t.Fatal(err)
	}
	h := hist.(*components.Histogram)
	const atoms, steps = 400, 5
	spec := Spec{
		Name: "gromacs-spread",
		Stages: []Stage{
			{Component: "gromacs", Args: []string{"gmx.fp", "positions", "400", "5"}, Procs: 2},
			{Component: "magnitude", Args: []string{"gmx.fp", "positions", "dist.fp", "radii"}, Procs: 3},
			{Instance: hist, Procs: 2},
		},
	}
	runT(t, spec)
	results := h.Results()
	if len(results) != steps {
		t.Fatalf("histogram saw %d steps, want %d", len(results), steps)
	}
	for s, r := range results {
		if r.Total != atoms {
			t.Fatalf("step %d histogrammed %d atoms, want %d", s, r.Total, atoms)
		}
		if r.Min < 0 {
			t.Fatalf("step %d: negative radius", s)
		}
	}
	// The ensemble diffuses: the spread at the end must exceed the start.
	if results[steps-1].Max <= results[0].Max {
		t.Fatalf("atom cloud did not spread: first max %v, last max %v",
			results[0].Max, results[steps-1].Max)
	}
}

func TestWorkflowStageOrderIrrelevant(t *testing.T) {
	// Reverse the stage list of the LAMMPS workflow: FlexPath rendezvous
	// means downstream-first launch must still complete (§IV point 2).
	hist, err := components.NewHistogram([]string{"velos.fp", "velocities", "8"})
	if err != nil {
		t.Fatal(err)
	}
	h := hist.(*components.Histogram)
	spec := lammpsWorkflowSpec(h)
	for i, j := 0, len(spec.Stages)-1; i < j; i, j = i+1, j-1 {
		spec.Stages[i], spec.Stages[j] = spec.Stages[j], spec.Stages[i]
	}
	runT(t, spec)
	if len(h.Results()) != 4 {
		t.Fatalf("reversed launch order lost steps: %d", len(h.Results()))
	}
}

func TestWorkflowFailurePropagates(t *testing.T) {
	// The select stage asks for a name the header lacks: it fails, and the
	// whole workflow must unwind (not hang) with the error surfaced.
	spec := Spec{
		Name: "doomed",
		Stages: []Stage{
			{Component: "lammps", Args: []string{"d.fp", "atoms", "100", "50"}, Procs: 1, QueueDepth: 1},
			{Component: "select", Args: []string{"d.fp", "atoms", "1", "s.fp", "sel", "no_such_prop"}, Procs: 1},
			{Component: "histogram", Args: []string{"s.fp", "sel", "4"}, Procs: 1},
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	res, err := Run(ctx, transport(), spec, Options{})
	if err == nil {
		t.Fatal("doomed workflow succeeded")
	}
	if !strings.Contains(err.Error(), "no_such_prop") {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 20*time.Second {
		t.Fatal("failure did not unwind promptly")
	}
	if res == nil {
		t.Fatal("result missing despite stage errors")
	}
}

func TestWorkflowContextCancel(t *testing.T) {
	// An endless consumer blocked on a stream that never gets data must
	// stop when the caller cancels.
	spec := Spec{
		Name: "cancelled",
		Stages: []Stage{
			{Component: "histogram", Args: []string{"never.fp", "x", "4"}, Procs: 1},
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, transport(), spec, Options{})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled workflow reported success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancel did not unwind the workflow")
	}
}

func TestResultMetricsLookup(t *testing.T) {
	res := &Result{Stages: []StageResult{
		{Metrics: sb.NewMetrics("a")},
		{Metrics: sb.NewMetrics("b")},
	}}
	if res.Metrics("b").Component() != "b" {
		t.Fatal("lookup failed")
	}
	if res.Metrics("zz") != nil {
		t.Fatal("phantom metrics")
	}
}

func TestWorkflowOverTCPTransport(t *testing.T) {
	// The same LAMMPS pipeline, but every stream exchange crosses a TCP
	// loopback broker — the multi-process deployment path.
	srv, err := flexpath.NewServer(flexpath.NewBroker(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := flexpath.Dial(srv.Addr())
	defer client.Close()

	hist, err := components.NewHistogram([]string{"velos.fp", "velocities", "8"})
	if err != nil {
		t.Fatal(err)
	}
	h := hist.(*components.Histogram)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := Run(ctx, sb.Fabric{T: flexpath.Remote{C: client}}, lammpsWorkflowSpec(h), Options{}); err != nil {
		t.Fatal(err)
	}
	results := h.Results()
	if len(results) != 4 {
		t.Fatalf("TCP workflow lost steps: %d", len(results))
	}
	for _, r := range results {
		if r.Total != 300 {
			t.Fatalf("TCP workflow lost particles: %+v", r)
		}
	}
}

func TestForkDAGWorkflow(t *testing.T) {
	// Future-work DAG: one sim forked to two analysis chains.
	histA, _ := components.NewHistogram([]string{"magA.fp", "m", "6"})
	histB, _ := components.NewHistogram([]string{"magB.fp", "m", "6"})
	spec := Spec{
		Name: "dag",
		Stages: []Stage{
			{Component: "gromacs", Args: []string{"pos.fp", "xyz", "120", "3"}, Procs: 2},
			{Component: "fork", Args: []string{"pos.fp", "xyz", "posA.fp", "posB.fp"}, Procs: 2},
			{Component: "magnitude", Args: []string{"posA.fp", "xyz", "magA.fp", "m"}, Procs: 2},
			{Component: "magnitude", Args: []string{"posB.fp", "xyz", "magB.fp", "m"}, Procs: 1},
			{Instance: histA, Procs: 1},
			{Instance: histB, Procs: 1},
		},
	}
	runT(t, spec)
	a := histA.(*components.Histogram).Results()
	b := histB.(*components.Histogram).Results()
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("fork branches saw %d/%d steps", len(a), len(b))
	}
	// Both branches computed the same distribution.
	for s := range a {
		if a[s].Min != b[s].Min || a[s].Max != b[s].Max || a[s].Total != b[s].Total {
			t.Fatalf("branches disagree at step %d: %+v vs %+v", s, a[s], b[s])
		}
	}
}
