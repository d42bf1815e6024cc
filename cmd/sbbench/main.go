// Command sbbench regenerates the SmartBlock paper's evaluation tables
// and figures (§V) on this machine:
//
//	sbbench -exp table1|fig9|table2|fig10|ablations|all [-size f]
//
// Each experiment prints the same rows/series the paper reports; -size
// scales the workload (1.0 ≈ tens of MB per run; raise it on a beefier
// machine to stress the transport harder). Absolute times differ from
// the paper's Titan/Falcon numbers by construction — the shapes (flat
// weak scaling, small componentization overhead, linear strong-scaling
// domain) are the reproduction targets; see EXPERIMENTS.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1, fig9, table2, fig10, ablations, all")
	size := flag.Float64("size", 1.0, "workload scale factor")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	run := func(name string, fn func(context.Context) error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := fn(ctx); err != nil {
			log.Fatalf("sbbench %s: %v", name, err)
		}
	}

	// table1 and fig9 share one sweep; when both are requested the sweep
	// runs once.
	var gtcpResults []bench.GTCPWeakResult
	gtcpSweep := func(ctx context.Context) error {
		if gtcpResults != nil {
			return nil
		}
		var err error
		gtcpResults, err = bench.RunGTCPWeak(ctx, bench.DefaultGTCPScales(*size))
		return err
	}

	run("table1", func(ctx context.Context) error {
		if err := gtcpSweep(ctx); err != nil {
			return err
		}
		fmt.Println(bench.FormatTable1(gtcpResults))
		return nil
	})
	run("fig9", func(ctx context.Context) error {
		if err := gtcpSweep(ctx); err != nil {
			return err
		}
		fmt.Println(bench.FormatFig9(bench.Fig9Rows(gtcpResults)))
		return nil
	})
	run("table2", func(ctx context.Context) error {
		rows, err := bench.RunAIOComparisonRepeated(ctx, bench.DefaultAIOScales(*size), 3)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatTable2(rows))
		return nil
	})
	run("fig10", func(ctx context.Context) error {
		rows, err := bench.RunMagnitudeStrongScaling(ctx, bench.DefaultFig10Config(*size))
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatFig10("Fig. 10: Magnitude strong scaling in the GROMACS workflow", rows))
		// The paper's closing §V-D claim: other components show similar
		// strong-scaling characteristics.
		selRows, err := bench.RunSelectStrongScaling(ctx, bench.DefaultFig10Config(*size))
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatFig10("Companion to Fig. 10: Select strong scaling in the LAMMPS workflow", selRows))
		return nil
	})
	run("ablations", func(ctx context.Context) error {
		// Ablations use throughput-bound configurations (large data, the
		// sims' default light subcycling) so the mechanism under test —
		// not simulation compute — dominates the measurement.
		particles := int(100000 * *size)
		qd, err := bench.RunQueueDepthAblation(ctx, particles, 6, []int{1, 2, 4, 8})
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatAblation("Ablation 1: writer-side queue depth (LAMMPS pipeline)", qd))

		fu, err := bench.RunFusionAblation(ctx, particles, 6)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatAblation("Ablation 2: pipeline granularity (componentized vs fused)", fu))

		pp, err := bench.RunPartitionPolicyAblation(ctx, 4, int(65536**size), 4)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatAblation("Ablation 3: partition-axis policy (GTCP Select, ranks > slices)", pp))

		tr, err := bench.RunTransportAblation(ctx, int(200000**size), 4)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatAblation("Ablation 4: stream fabric backend (inproc vs TCP vs Unix socket vs shm ring, GROMACS pipeline)", tr))
		return nil
	})

	switch *exp {
	case "table1", "fig9", "table2", "fig10", "ablations", "all":
	default:
		log.Fatalf("sbbench: unknown experiment %q", *exp)
	}
}
