// Package lammps is a synthetic stand-in for the LAMMPS Newtonian
// particle simulator driving the paper's first workflow (§V-A): a thin
// layer of particles in which a disruption — a "crack" — propagates,
// with the simulation outputting 5 numerical properties per particle
// (ID, Type, vx, vy, vz) at regular timestep intervals.
//
// The mini-app integrates a 2-D triangular-lattice sheet of unit-mass
// particles bound to their lattice sites by harmonic springs with
// damping, plus nearest-neighbor springs. The crack is modeled as a
// front sweeping across the sheet: bonds crossing the front break, and
// the freed edge particles receive an impulse, so the velocity
// distribution develops the high-magnitude tail a crack produces. Only
// the output contract matters to the workflow — a (particles × 5) array
// whose property dimension carries a header — and that contract matches
// the paper's.
//
// The simulation is itself a SmartBlock-instrumented MPI program: each
// rank owns a contiguous slab of particles and publishes its slab as a
// block of the global array ("roughly 70 lines of code were required to
// allow each of the three simulations … to work with SmartBlock", §IV).
package lammps

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/adios"
	"repro/internal/components"
	"repro/internal/ndarray"
	"repro/internal/sb"
)

const usage = "output-stream-name output-array-name num-particles num-steps [seed] [subcycles]"

// Props is the per-particle property header, in output column order —
// exactly the five quantities the paper's LAMMPS dump carries.
var Props = []string{"ID", "Type", "vx", "vy", "vz"}

// Sim is the crack mini-app configured for one run. The zero value is
// not usable; construct with New or NewFromArgs.
type Sim struct {
	Stream    string // output stream name; "-" disables output (Table II's "LMP only" mode)
	Array     string // output array name
	Particles int    // total particles across all ranks
	Steps     int    // coarse-grained output timesteps
	Seed      int64

	// SubCycles is the number of fine-grained integration steps per
	// output timestep ("Each simulation operates over these units with
	// fine-grained time step granularity and outputs the states … at
	// coarse-grained intervals", §V-A).
	SubCycles int
	// Dt is the integration timestep.
	Dt float64
}

// New returns a Sim with the reference physics parameters.
func New(stream, array string, particles, steps int, seed int64) *Sim {
	return &Sim{
		Stream: stream, Array: array,
		Particles: particles, Steps: steps, Seed: seed,
		SubCycles: 5, Dt: 0.02,
	}
}

// NewFromArgs parses: output-stream output-array num-particles num-steps
// [seed] [subcycles]. The subcycles knob sets how many fine-grained
// integration cycles run per output timestep — the ratio of simulation
// compute to I/O, which the evaluation harness raises to match the
// paper's compute-dominated regime.
func NewFromArgs(args []string) (sb.Component, error) {
	if len(args) < 4 || len(args) > 6 {
		return nil, &sb.UsageError{Component: "lammps", Usage: usage,
			Problem: fmt.Sprintf("need 4 to 6 arguments, got %d", len(args))}
	}
	particles, err := strconv.Atoi(args[2])
	if err != nil || particles <= 0 {
		return nil, &sb.UsageError{Component: "lammps", Usage: usage,
			Problem: fmt.Sprintf("num-particles %q is not a positive integer", args[2])}
	}
	steps, err := strconv.Atoi(args[3])
	if err != nil || steps <= 0 {
		return nil, &sb.UsageError{Component: "lammps", Usage: usage,
			Problem: fmt.Sprintf("num-steps %q is not a positive integer", args[3])}
	}
	var seed int64 = 1
	if len(args) >= 5 {
		s, err := strconv.ParseInt(args[4], 10, 64)
		if err != nil {
			return nil, &sb.UsageError{Component: "lammps", Usage: usage,
				Problem: fmt.Sprintf("seed %q is not an integer", args[4])}
		}
		seed = s
	}
	sim := New(args[0], args[1], particles, steps, seed)
	if len(args) == 6 {
		sc, err := strconv.Atoi(args[5])
		if err != nil || sc <= 0 {
			return nil, &sb.UsageError{Component: "lammps", Usage: usage,
				Problem: fmt.Sprintf("subcycles %q is not a positive integer", args[5])}
		}
		sim.SubCycles = sc
	}
	return sim, nil
}

// Name implements sb.Component.
func (s *Sim) Name() string { return "lammps" }

// state is one rank's slab of the sheet.
type state struct {
	n          int       // local particles
	offset     int       // global index of first local particle
	x, y       []float64 // positions
	vx, vy, vz []float64
	restX      []float64 // lattice site positions
	restY      []float64
	ptype      []float64 // 1 = bulk, 2 = crack-edge
	broken     []bool    // released from the lattice by the crack
	cols       int       // sheet width in particles

	strips [2][2]stripBuf // reusable halo send buffers: [side][round parity]
	round  int            // halo-exchange rounds completed
}

// Run implements sb.Component: integrate, and publish one (particles×5)
// timestep per coarse interval.
func (s *Sim) Run(env *sb.Env) error {
	rank, size := env.Comm.Rank(), env.Comm.Size()
	offset, count := ndarray.Partition1D(s.Particles, size, rank)
	st := s.initState(offset, count, rank)

	var w *adios.Writer
	if s.Stream != "-" {
		group, depth, err := adios.EmbeddedGroup(ConfigXML, "particles", "atoms", s.Array)
		if err != nil {
			return fmt.Errorf("lammps: %w", err)
		}
		w, err = env.OpenWriterGroup(s.Stream, group, depth)
		if err != nil {
			return fmt.Errorf("lammps: attaching writer to %q: %w", s.Stream, err)
		}
		defer w.Close()
		w.SetStickyAttribute(components.HeaderAttr("props"), adios.JoinList(Props))
	}

	globalDims := []ndarray.Dim{
		{Name: "particles", Size: s.Particles},
		{Name: "props", Size: len(Props)},
	}
	box := ndarray.Box{Offsets: []int{offset, 0}, Counts: []int{count, len(Props)}}
	buf := make([]float64, count*len(Props))

	subCycles := s.SubCycles
	if subCycles <= 0 {
		subCycles = 1
	}
	for step := 0; step < s.Steps; step++ {
		begin := time.Now()
		for sub := 0; sub < subCycles; sub++ {
			cycle := step*subCycles + sub
			below, above, err := exchangeHalos(env.Comm, st)
			if err != nil {
				return err
			}
			s.integrate(st, cycle, below, above)
		}
		if w != nil {
			for i := 0; i < st.n; i++ {
				row := buf[i*len(Props):]
				row[0] = float64(st.offset + i + 1) // 1-based particle ID
				row[1] = st.ptype[i]
				row[2] = st.vx[i]
				row[3] = st.vy[i]
				row[4] = st.vz[i]
			}
			// A restarted run recomputes every step from its seed but
			// publishes, and records, only the steps its resumed writer
			// lacks.
			published, err := sb.PublishStep(env.Ctx(), w, step, s.Array, globalDims, box, buf)
			if err != nil {
				return fmt.Errorf("lammps: step %d: %w", step, err)
			}
			if !published {
				continue
			}
		}
		env.Metrics.RecordStep(step, time.Since(begin), 0, int64(len(buf)*8))
	}
	return nil
}

// initState lays this rank's particles out on a unit square lattice; the
// sheet is as close to square as the particle count allows.
func (s *Sim) initState(offset, count, rank int) *state {
	cols := int(math.Ceil(math.Sqrt(float64(s.Particles))))
	if cols < 1 {
		cols = 1
	}
	st := &state{
		n: count, offset: offset, cols: cols,
		x: make([]float64, count), y: make([]float64, count),
		vx: make([]float64, count), vy: make([]float64, count), vz: make([]float64, count),
		restX: make([]float64, count), restY: make([]float64, count),
		ptype: make([]float64, count), broken: make([]bool, count),
	}
	rng := rand.New(rand.NewSource(s.Seed + int64(rank)*7919))
	for i := 0; i < count; i++ {
		g := offset + i
		st.restX[i] = float64(g % cols)
		st.restY[i] = float64(g / cols)
		st.x[i] = st.restX[i] + 0.01*rng.NormFloat64()
		st.y[i] = st.restY[i] + 0.01*rng.NormFloat64()
		st.vx[i] = 0.05 * rng.NormFloat64()
		st.vy[i] = 0.05 * rng.NormFloat64()
		st.vz[i] = 0.05 * rng.NormFloat64()
		st.ptype[i] = 1
	}
	return st
}

// integrate advances one fine-grained cycle with velocity Verlet against
// harmonic site springs plus nearest-neighbor lattice bonds (whose
// cross-rank ends come from the halo exchange), then sweeps the crack
// front.
func (s *Sim) integrate(st *state, cycle int, below, above halo) {
	const (
		k       = 4.0  // spring constant to lattice site
		kBond   = 1.5  // nearest-neighbor bond stiffness
		damping = 0.05 // velocity damping
		impulse = 1.5  // crack release impulse
	)
	dt := s.Dt
	// Crack front: a vertical line sweeping across the sheet, one column
	// per ~2 cycles, starting after a quarter of the run.
	frontCol := (cycle - 2) / 2
	for i := 0; i < st.n; i++ {
		if st.broken[i] {
			// Freed particles fly ballistically with weak damping.
			st.x[i] += st.vx[i] * dt
			st.y[i] += st.vy[i] * dt
			st.vx[i] *= 1 - damping*dt
			st.vy[i] *= 1 - damping*dt
			st.vz[i] *= 1 - damping*dt
			continue
		}
		fx := -k*(st.x[i]-st.restX[i]) - damping*st.vx[i]
		fy := -k*(st.y[i]-st.restY[i]) - damping*st.vy[i]
		fz := -damping * st.vz[i]
		// Nearest-neighbor bonds: left/right along the row, up/down along
		// the column. Bonds to broken (crack-released) particles exert no
		// force, which is what lets the crack faces separate.
		g := st.offset + i
		row := g / st.cols
		for _, ng := range [4]int{g - 1, g + 1, g - st.cols, g + st.cols} {
			if ng == g-1 && ng/st.cols != row {
				continue // row wrap: no bond across the sheet edge
			}
			if ng == g+1 && (ng >= s.Particles || ng/st.cols != row) {
				continue
			}
			if ng < 0 || ng >= s.Particles {
				continue
			}
			nx, ny, ok := lookup(st, below, above, ng)
			if !ok {
				continue
			}
			// Bond force restores the rest separation.
			restDx := st.restX[i] - float64(ng%st.cols)
			restDy := st.restY[i] - float64(ng/st.cols)
			fx += -kBond * ((st.x[i] - nx) - restDx)
			fy += -kBond * ((st.y[i] - ny) - restDy)
		}
		st.vx[i] += fx * dt
		st.vy[i] += fy * dt
		st.vz[i] += fz * dt
		st.x[i] += st.vx[i] * dt
		st.y[i] += st.vy[i] * dt
		// The crack reaches this particle's column: break the bond along
		// the crack row band and kick the particle. The lattice column and
		// row follow from the global index computed above.
		col := g % st.cols
		crackRow := st.cols / 2
		if frontCol >= 0 && col <= frontCol && row >= crackRow-1 && row <= crackRow+1 {
			st.broken[i] = true
			st.ptype[i] = 2
			// Deterministic pseudo-random kick derived from the particle id.
			h := uint64(st.offset+i)*2654435761 + uint64(cycle)*40503
			dir := float64(h%6283) / 1000.0
			st.vx[i] += impulse * math.Cos(dir)
			st.vy[i] += impulse * math.Sin(dir)
			st.vz[i] += impulse * 0.25 * math.Sin(2*dir)
		}
	}
}

func init() { components.Register("lammps", NewFromArgs) }

// Ports implements sb.PortDeclarer: the simulation drives the workflow,
// publishing its atom array (nothing when output is disabled).
func (s *Sim) Ports() []sb.Port {
	if s.Stream == "-" {
		return nil
	}
	return []sb.Port{{Dir: sb.PortOut, Stream: s.Stream, Array: s.Array}}
}
