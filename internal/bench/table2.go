package bench

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"repro/internal/components"
	"repro/internal/flexpath"
	"repro/internal/sb"
	"repro/internal/workflow"

	_ "repro/internal/sim/lammps" // register the lammps driver
)

// AIOScale is one row of the Table II sweep. The paper weak-scales: the
// per-process data size stays approximately constant while process
// counts (and therefore total data) grow.
type AIOScale struct {
	Name      string
	Particles int
	Steps     int
	SimProcs  int
	// AnalysisProcs is allocated to the AIO component and to Select in
	// the SmartBlock workflow ("the corresponding AIO workflow run
	// allocates the same number of processes to the AIO component as the
	// SmartBlock workflow allocates to the Select component", §V-C).
	AnalysisProcs int
	// MagProcs and HistProcs are the extra processes the SmartBlock
	// pipeline gets for its remaining stages.
	MagProcs, HistProcs int
	Bins                int
	// SubCycles sets the simulation's compute-to-I/O ratio. The paper's
	// Table II runs are ~98% simulation computation ("much of the
	// start-to-end time is spent on the simulation's computation"); a
	// high default reproduces that regime, which is what lets FlexPath's
	// compute/I-O overlap amortize the componentization overhead.
	SubCycles int
}

// OutputBytes is the simulation's total output over the run.
func (s AIOScale) OutputBytes() int64 {
	return int64(s.Particles) * 5 * 8 * int64(s.Steps)
}

// DefaultAIOScales mirrors Table II's five weak-scaled sizes (paper:
// 20 MB → 5120 MB; here shrunk by sizeFactor·~1000). Per-proc particle
// load is constant across the sweep.
func DefaultAIOScales(sizeFactor float64) []AIOScale {
	if sizeFactor <= 0 {
		sizeFactor = 1
	}
	perProc := int(8192 * sizeFactor) // particles per sim process
	simProcs := []int{1, 2, 4, 8, 16}
	scales := make([]AIOScale, len(simProcs))
	for i, sp := range simProcs {
		scales[i] = AIOScale{
			Name:          fmt.Sprintf("scale-%d", i+1),
			Particles:     perProc * sp,
			Steps:         3,
			SimProcs:      sp,
			AnalysisProcs: max(1, sp/4),
			MagProcs:      max(1, sp/4),
			HistProcs:     1,
			Bins:          16,
			SubCycles:     250,
		}
	}
	return scales
}

// AIOComparisonRow is one Table II row: completion times of the four
// configurations at one scale.
type AIOComparisonRow struct {
	Scale     AIOScale
	AIO       time.Duration // LAMMPS + all-in-one analysis component
	SB        time.Duration // LAMMPS + Select → Magnitude → Histogram
	Fused     time.Duration // the SB spec with the plan-fusion pass applied
	SimOnly   time.Duration // LAMMPS with output routines disabled
	AIOHist   []components.StepHistogram
	SBHist    []components.StepHistogram
	FusedHist []components.StepHistogram
}

// OverheadPct is the SmartBlock-over-AIO completion time increase the
// paper bounds at 1.9%.
func (r AIOComparisonRow) OverheadPct() float64 {
	if r.AIO <= 0 {
		return 0
	}
	return (r.SB.Seconds() - r.AIO.Seconds()) / r.AIO.Seconds() * 100
}

// FusedOverheadPct is the fused-pipeline-over-AIO completion time
// increase — what componentization costs once the fusion pass has
// recovered the AIO dataflow shape.
func (r AIOComparisonRow) FusedOverheadPct() float64 {
	if r.AIO <= 0 {
		return 0
	}
	return (r.Fused.Seconds() - r.AIO.Seconds()) / r.AIO.Seconds() * 100
}

// RunAIOComparison executes the Table II sweep with a single repetition
// per configuration.
func RunAIOComparison(ctx context.Context, scales []AIOScale) ([]AIOComparisonRow, error) {
	return RunAIOComparisonRepeated(ctx, scales, 1)
}

// RunAIOComparisonRepeated executes the Table II sweep: for every scale
// it runs the AIO workflow, the SmartBlock workflow, and the
// simulation-only configuration, with identical simulation parameters
// and seeds. Each configuration is run `repeats` times and the minimum
// completion time kept — the standard defense against scheduler noise on
// short runs (the paper's runs last minutes; these last fractions of a
// second).
func RunAIOComparisonRepeated(ctx context.Context, scales []AIOScale, repeats int) ([]AIOComparisonRow, error) {
	if repeats < 1 {
		repeats = 1
	}
	rows := make([]AIOComparisonRow, 0, len(scales))
	for _, s := range scales {
		simArgs := []string{"dump.fp", "atoms", fmt.Sprint(s.Particles), fmt.Sprint(s.Steps),
			"1", fmt.Sprint(max(1, s.SubCycles))}
		row := AIOComparisonRow{Scale: s}

		// (a) AIO: simulation + fused analysis.
		for rep := 0; rep < repeats; rep++ {
			aio, err := components.NewAIO([]string{"dump.fp", "atoms", "1",
				fmt.Sprint(s.Bins), "-", "vx", "vy", "vz"})
			if err != nil {
				return nil, err
			}
			res, err := workflow.Run(ctx, sb.Fabric{T: flexpath.InProc{B: flexpath.NewBroker()}}, workflow.Spec{
				Name: "aio-" + s.Name,
				Stages: []workflow.Stage{
					{Component: "lammps", Args: simArgs, Procs: s.SimProcs},
					{Instance: aio, Procs: s.AnalysisProcs},
				},
			}, workflow.Options{})
			if err != nil {
				return nil, fmt.Errorf("bench: table2 AIO %s: %w", s.Name, err)
			}
			if row.AIO == 0 || res.Elapsed < row.AIO {
				row.AIO = res.Elapsed
			}
			row.AIOHist = aio.(*components.AIO).Results()
		}

		// (b) SmartBlock: simulation + componentized pipeline.
		for rep := 0; rep < repeats; rep++ {
			hist, err := components.NewHistogram([]string{"velos.fp", "velocities", fmt.Sprint(s.Bins)})
			if err != nil {
				return nil, err
			}
			res, err := workflow.Run(ctx, sb.Fabric{T: flexpath.InProc{B: flexpath.NewBroker()}}, workflow.Spec{
				Name: "sb-" + s.Name,
				Stages: []workflow.Stage{
					{Component: "lammps", Args: simArgs, Procs: s.SimProcs},
					{Component: "select", Args: []string{"dump.fp", "atoms", "1",
						"lmpselect.fp", "lmpsel", "vx", "vy", "vz"}, Procs: s.AnalysisProcs},
					{Component: "magnitude", Args: []string{"lmpselect.fp", "lmpsel",
						"velos.fp", "velocities"}, Procs: s.MagProcs},
					{Instance: hist, Procs: s.HistProcs},
				},
			}, workflow.Options{})
			if err != nil {
				return nil, fmt.Errorf("bench: table2 SmartBlock %s: %w", s.Name, err)
			}
			if row.SB == 0 || res.Elapsed < row.SB {
				row.SB = res.Elapsed
			}
			row.SBHist = hist.(*components.Histogram).Results()
		}

		// (b2) SmartBlock fused: the identical componentized spec with the
		// plan-fusion pass applied (select+magnitude collapse into one
		// stage when their rank counts match). The histograms must match
		// the componentized run bit for bit — the sims are deterministic,
		// so any divergence is a fusion bug and fails the benchmark.
		for rep := 0; rep < repeats; rep++ {
			hist, err := components.NewHistogram([]string{"velos.fp", "velocities", fmt.Sprint(s.Bins)})
			if err != nil {
				return nil, err
			}
			plan, err := workflow.BuildPlan(workflow.Spec{
				Name: "fused-" + s.Name,
				Stages: []workflow.Stage{
					{Component: "lammps", Args: simArgs, Procs: s.SimProcs},
					{Component: "select", Args: []string{"dump.fp", "atoms", "1",
						"lmpselect.fp", "lmpsel", "vx", "vy", "vz"}, Procs: s.AnalysisProcs},
					{Component: "magnitude", Args: []string{"lmpselect.fp", "lmpsel",
						"velos.fp", "velocities"}, Procs: s.MagProcs},
					{Instance: hist, Procs: s.HistProcs},
				},
			})
			if err != nil {
				return nil, fmt.Errorf("bench: table2 fused %s: %w", s.Name, err)
			}
			fused, err := plan.Fuse()
			if err != nil {
				return nil, fmt.Errorf("bench: table2 fused %s: %w", s.Name, err)
			}
			res, err := workflow.Run(ctx, sb.Fabric{T: flexpath.InProc{B: flexpath.NewBroker()}}, fused.Spec, workflow.Options{})
			if err != nil {
				return nil, fmt.Errorf("bench: table2 fused %s: %w", s.Name, err)
			}
			if row.Fused == 0 || res.Elapsed < row.Fused {
				row.Fused = res.Elapsed
			}
			row.FusedHist = hist.(*components.Histogram).Results()
			if !reflect.DeepEqual(row.FusedHist, row.SBHist) {
				return nil, fmt.Errorf("bench: table2 fused %s: histogram diverged from componentized run", s.Name)
			}
		}

		// (c) Simulation only, output routines removed.
		onlyArgs := append([]string{"-"}, simArgs[1:]...)
		for rep := 0; rep < repeats; rep++ {
			res, err := workflow.Run(ctx, sb.Fabric{T: flexpath.InProc{B: flexpath.NewBroker()}}, workflow.Spec{
				Name: "only-" + s.Name,
				Stages: []workflow.Stage{
					{Component: "lammps", Args: onlyArgs, Procs: s.SimProcs},
				},
			}, workflow.Options{})
			if err != nil {
				return nil, fmt.Errorf("bench: table2 sim-only %s: %w", s.Name, err)
			}
			if row.SimOnly == 0 || res.Elapsed < row.SimOnly {
				row.SimOnly = res.Elapsed
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable2 renders the Table II reproduction, extended with the
// plan-fused configuration.
func FormatTable2(rows []AIOComparisonRow) string {
	t := newTable("SIM output (MB)", "AIO time (sec)", "SmartBlock time (sec)", "Fused time (sec)",
		"LMP only (sec)", "SB overhead (%)", "Fused overhead (%)")
	for _, r := range rows {
		t.row(
			Sizef(r.Scale.OutputBytes()),
			Seconds(r.AIO),
			Seconds(r.SB),
			Seconds(r.Fused),
			Seconds(r.SimOnly),
			fmt.Sprintf("%+.1f", r.OverheadPct()),
			fmt.Sprintf("%+.1f", r.FusedOverheadPct()),
		)
	}
	return "Table II: LAMMPS — SmartBlock vs. all-in-one comparison, end-to-end times\n" + t.String()
}
