package workflow

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/components"
	"repro/internal/flexpath"
	"repro/internal/sb"
)

// crashAfter consumes a stream and fails on a chosen step — a component
// dying mid-workflow rather than at argument-parse time.
type crashAfter struct {
	stream, array string
	failStep      int
}

func (c *crashAfter) Name() string { return "crash-after" }

func (c *crashAfter) Run(env *sb.Env) error {
	r, err := env.OpenReader(c.stream)
	if err != nil {
		return err
	}
	defer r.Close()
	for step := 0; ; step++ {
		if _, err := r.BeginStep(env.Ctx()); err != nil {
			return err
		}
		if step == c.failStep {
			return fmt.Errorf("injected crash at step %d", step)
		}
		if _, err := r.ReadAll(env.Ctx(), c.array); err != nil {
			return err
		}
		if err := r.EndStep(); err != nil {
			return err
		}
	}
}

func TestMidStreamComponentCrashUnwindsWorkflow(t *testing.T) {
	// The sim produces many steps with a shallow queue; the consumer
	// crashes at step 2. Without unwinding, the sim would wedge on its
	// full queue forever.
	spec := Spec{
		Name: "midcrash",
		Stages: []Stage{
			{Component: "lammps", Args: []string{"d.fp", "atoms", "200", "50"}, Procs: 2, QueueDepth: 1},
			{Instance: &crashAfter{stream: "d.fp", array: "atoms", failStep: 2}, Procs: 1},
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	_, err := Run(ctx, transport(), spec, Options{})
	if err == nil {
		t.Fatal("crashed workflow reported success")
	}
	if !errors.Is(ctx.Err(), context.Canceled) && time.Since(start) > 25*time.Second {
		t.Fatal("workflow did not unwind after mid-stream crash")
	}
	if got := err.Error(); !contains(got, "injected crash") {
		t.Fatalf("root cause lost: %v", err)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return len(sub) == 0
}

func TestBrokerDeathMidWorkflowSurfacesError(t *testing.T) {
	// Kill the TCP broker while a long workflow runs: every component's
	// next transport call must fail and the run must return promptly.
	srv, err := flexpath.NewServer(flexpath.NewBroker(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := flexpath.Dial(srv.Addr())
	defer client.Close()

	hist, err := components.NewHistogram([]string{"velos.fp", "velocities", "8"})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Name: "brokerdeath",
		Stages: []Stage{
			{Component: "lammps", Args: []string{"dump.fp", "atoms", "5000", "200"}, Procs: 2},
			{Component: "select", Args: []string{"dump.fp", "atoms", "1", "sel.fp", "s", "vx", "vy", "vz"}, Procs: 1},
			{Component: "magnitude", Args: []string{"sel.fp", "s", "velos.fp", "velocities"}, Procs: 1},
			{Instance: hist, Procs: 1},
		},
	}
	done := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), sb.Fabric{T: flexpath.Remote{C: client}}, spec, Options{})
		done <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the pipeline start flowing
	srv.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("workflow survived broker death")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("workflow hung after broker death")
	}
}

func TestWorkflowLargeFanIn(t *testing.T) {
	// Stress the rendezvous bookkeeping: 6 producers forked/merged down a
	// binary concat tree into one histogram. Also a realistic DAG beyond
	// the paper's linear pipelines.
	spec := Spec{
		Name: "fanin",
		Stages: []Stage{
			{Component: "gromacs", Args: []string{"p1.fp", "x", "60", "2", "1"}, Procs: 1},
			{Component: "gromacs", Args: []string{"p2.fp", "x", "60", "2", "2"}, Procs: 2},
			{Component: "concat", Args: []string{"p1.fp", "x", "p2.fp", "x", "0", "m1.fp", "x"}, Procs: 2},
			{Component: "magnitude", Args: []string{"m1.fp", "x", "d.fp", "r"}, Procs: 2},
			{Component: "histogram", Args: []string{"d.fp", "r", "6"}, Procs: 1},
		},
	}
	res := runT(t, spec)
	hist := res.Stages[4].Component.(*components.Histogram)
	results := hist.Results()
	if len(results) != 2 {
		t.Fatalf("saw %d steps", len(results))
	}
	for _, r := range results {
		if r.Total != 120 { // 60 + 60 atoms merged
			t.Fatalf("merged histogram covers %d atoms, want 120", r.Total)
		}
	}
}
