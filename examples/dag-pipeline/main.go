// DAG pipeline: the extension components working together, beyond the
// paper's linear workflows (§VI anticipates "much richer workflows
// described by directed acyclic graphs").
//
//	gromacs ──► step-sample ──► fork ──┬─► scale ──┐
//	                                   │           ├─► concat ──► stats
//	                                   └───────────┘
//
// A molecular-dynamics stream is thinned to every second timestep,
// forked into two branches, one branch converted from nanometers to
// Ångström by scale, the branches re-joined side by side by concat, and
// summary statistics of the combined array reported by stats — every
// stage a generic component configured purely by run-time arguments.
//
// Run with:
//
//	go run ./examples/dag-pipeline
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/components"
	"repro/internal/flexpath"
	"repro/internal/sb"
	"repro/internal/workflow"

	_ "repro/internal/sim/gromacs"
)

func main() {
	statsC, err := components.NewStats([]string{"joined.fp", "both"})
	if err != nil {
		log.Fatal(err)
	}
	stats := statsC.(*components.Stats)

	spec := workflow.Spec{
		Name: "dag-pipeline",
		Stages: []workflow.Stage{
			{Component: "gromacs", Args: []string{"pos.fp", "xyz", "5000", "6"}, Procs: 2},
			// Keep every 2nd timestep: the analysis cadence is coarser
			// than the simulation's output cadence.
			{Component: "step-sample", Args: []string{"pos.fp", "xyz", "2", "thin.fp", "xyz"}, Procs: 2},
			{Component: "fork", Args: []string{"thin.fp", "xyz", "nm.fp", "raw.fp"}, Procs: 2},
			// One branch in Ångström (×10), the other untouched.
			{Component: "scale", Args: []string{"nm.fp", "xyz", "10", "0", "ang.fp", "xyz"}, Procs: 2},
			{Component: "concat", Args: []string{"raw.fp", "xyz", "ang.fp", "xyz", "1", "joined.fp", "both"}, Procs: 2},
			{Instance: stats, Procs: 1},
		},
	}

	// Static wiring check before launch — a mistyped stream name would
	// otherwise block the whole job forever.
	issues, err := workflow.Lint(spec)
	if err != nil {
		log.Fatal(err)
	}
	for _, issue := range issues {
		fmt.Println("lint:", issue)
	}

	res, err := workflow.Run(context.Background(),
		sb.Fabric{T: flexpath.InProc{B: flexpath.NewBroker()}}, spec, workflow.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(workflow.Report(res))

	fmt.Println("\nper-step statistics of the joined (raw ‖ ×10) coordinate array:")
	for _, s := range stats.Results() {
		fmt.Printf("  step %d: n=%d  min=%8.3f  max=%8.3f  mean=%7.4f  std=%6.3f\n",
			s.Step, s.Count, s.Min, s.Max, s.Mean, s.Std)
	}
	// The joined array interleaves x and 10x, so the mean is ~5.5x the
	// raw mean and the extremes are 10x the raw extremes — visible above.
}
