package workflow

import "testing"

// TestPlanGolden snapshots `sbrun -explain` for the three example
// workflows (examples/lammps-crack, examples/gtcp-toroid,
// examples/gromacs-spread). Explain is a user-facing contract — these
// goldens pin its exact rendering; refresh deliberately with:
//
//	go test ./internal/workflow/ -run TestPlanGolden -update
func TestPlanGolden(t *testing.T) {
	cases := []struct {
		golden string
		spec   Spec
	}{
		{
			// examples/lammps-crack: the paper's Fig. 8 script. Fusable
			// chain: select+magnitude at 2 ranks.
			golden: "plan_lammps_crack.golden",
			spec: Spec{
				Name: "lammps-crack",
				Stages: []Stage{
					{Component: "histogram", Args: []string{"velos.fp", "velocities", "16", "velocity_hist.txt"}, Procs: 1},
					{Component: "magnitude", Args: []string{"lmpselect.fp", "lmpsel", "velos.fp", "velocities"}, Procs: 2},
					{Component: "select", Args: []string{"dump.custom.fp", "atoms", "1", "lmpselect.fp", "lmpsel", "vx", "vy", "vz"}, Procs: 2},
					{Component: "lammps", Args: []string{"dump.custom.fp", "atoms", "20000", "6"}, Procs: 4},
				},
			},
		},
		{
			// examples/gtcp-toroid: Fig. 6's pressure pipeline. Fusable
			// chain: select+dim-reduce+dim-reduce at 2 ranks.
			golden: "plan_gtcp_toroid.golden",
			spec: Spec{
				Name: "gtcp-toroid",
				Stages: []Stage{
					{Component: "gtcp", Args: []string{"gtcp.fp", "grid", "16", "512", "4"}, Procs: 4},
					{Component: "select", Args: []string{"gtcp.fp", "grid", "2", "psel.fp", "press", "pressure_perp"}, Procs: 2},
					{Component: "dim-reduce", Args: []string{"psel.fp", "press", "2", "1", "dr1.fp", "press2"}, Procs: 2},
					{Component: "dim-reduce", Args: []string{"dr1.fp", "press2", "0", "1", "flat.fp", "pressures"}, Procs: 2},
					{Component: "histogram", Args: []string{"flat.fp", "pressures", "20"}, Procs: 1},
				},
			},
		},
		{
			// examples/gromacs-spread, live phase: the fork stage fans
			// gmx.fp out to two streams, so nothing fuses here — the plan
			// must say so rather than stay silent.
			golden: "plan_gromacs_spread.golden",
			spec: Spec{
				Name: "gromacs-live",
				Stages: []Stage{
					{Component: "gromacs", Args: []string{"gmx.fp", "positions", "20000", "6"}, Procs: 4},
					{Component: "fork", Args: []string{"gmx.fp", "positions", "live.fp", "store.fp"}, Procs: 2},
					{Component: "magnitude", Args: []string{"live.fp", "positions", "dist.fp", "radii"}, Procs: 2},
					{Component: "histogram", Args: []string{"dist.fp", "radii", "12"}, Procs: 1},
					{Component: "file-writer", Args: []string{"store.fp", "positions", "/tmp/spread"}, Procs: 2},
				},
			},
		},
		{
			// The Fig. 8 workflow again, but multi-process on one node:
			// transport auto against a broker socket path (resolves shm),
			// with the dump stream explicitly pinned to uds and the fusion
			// pass on — the plan must show the per-edge resolution,
			// including the edge fusion elides from the fabric entirely.
			golden: "plan_lammps_crack_auto.golden",
			spec: Spec{
				Name: "lammps-crack-auto",
				Stages: []Stage{
					{Component: "histogram", Args: []string{"velos.fp", "velocities", "16", "velocity_hist.txt"}, Procs: 1},
					{Component: "magnitude", Args: []string{"lmpselect.fp", "lmpsel", "velos.fp", "velocities"}, Procs: 2},
					{Component: "select", Args: []string{"dump.custom.fp", "atoms", "1", "lmpselect.fp", "lmpsel", "vx", "vy", "vz"}, Procs: 2},
					{Component: "lammps", Args: []string{"dump.custom.fp", "atoms", "20000", "6"}, Procs: 4},
				},
				Transport: TransportSpec{Kind: "auto", Addr: "/run/sb/broker.sock"},
				EdgeTransports: map[string]TransportSpec{
					"dump.custom.fp": {Kind: "uds", Addr: "/run/sb/broker.sock"},
				},
				Fuse: true,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.spec.Name, func(t *testing.T) {
			plan, err := BuildPlan(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.golden, plan.Explain())
		})
	}
}
