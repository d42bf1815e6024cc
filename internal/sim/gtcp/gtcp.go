// Package gtcp is a synthetic stand-in for GTC-P, the particle-in-cell
// Tokamak simulator driving the paper's second workflow (§V-A): it
// "splits the solid into toroidal slices, each made up of a number of
// grid points. For each of these grid points, it outputs 7 properties of
// the plasma such as pressure and energy flux." (see Fig. 4 and Fig. 6).
//
// The mini-app evolves seven coupled scalar fields on a (slices ×
// gridpoints) toroidal mesh: diffusion along each ring, toroidal drift
// between rings (periodic in the slice dimension), a localized heating
// source, and small stochastic forcing. What the workflow consumes is a
// three-dimensional (slices × gridpoints × 7) array whose quantity
// dimension carries a header naming the properties — which is what lets
// Select filter "perpendicular pressure" by name and forces the two
// Dim-Reduce stages before Histogram.
package gtcp

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

const usage = "output-stream-name output-array-name num-slices num-gridpoints num-steps [seed] [subcycles]"

// Quantities is the per-gridpoint property header, in output order. The
// workflow in Fig. 6 selects "pressure_perp".
var Quantities = []string{
	"density", "temperature_par", "temperature_perp",
	"pressure_par", "pressure_perp", "energy_flux", "potential",
}

// Sim is the toroidal mini-app configured for one run.
type Sim struct {
	Stream string // output stream name; "-" disables output
	Array  string
	Slices int // toroidal slices (dimension D in Fig. 6)
	Points int // grid points per slice (dimension E)
	Steps  int
	Seed   int64

	SubCycles int
	Dt        float64
}

// New returns a Sim with the reference physics parameters.
func New(stream, array string, slices, points, steps int, seed int64) *Sim {
	return &Sim{
		Stream: stream, Array: array,
		Slices: slices, Points: points, Steps: steps, Seed: seed,
		SubCycles: 3, Dt: 0.05,
	}
}

// NewFromArgs parses: output-stream output-array num-slices
// num-gridpoints num-steps [seed] [subcycles]; subcycles sets the
// fine-grained integration cycles per output timestep.
func NewFromArgs(args []string) (sb.Component, error) {
	if len(args) < 5 || len(args) > 7 {
		return nil, &sb.UsageError{Component: "gtcp", Usage: usage,
			Problem: fmt.Sprintf("need 5 to 7 arguments, got %d", len(args))}
	}
	slices, err := strconv.Atoi(args[2])
	if err != nil || slices <= 0 {
		return nil, &sb.UsageError{Component: "gtcp", Usage: usage,
			Problem: fmt.Sprintf("num-slices %q is not a positive integer", args[2])}
	}
	points, err := strconv.Atoi(args[3])
	if err != nil || points <= 0 {
		return nil, &sb.UsageError{Component: "gtcp", Usage: usage,
			Problem: fmt.Sprintf("num-gridpoints %q is not a positive integer", args[3])}
	}
	steps, err := strconv.Atoi(args[4])
	if err != nil || steps <= 0 {
		return nil, &sb.UsageError{Component: "gtcp", Usage: usage,
			Problem: fmt.Sprintf("num-steps %q is not a positive integer", args[4])}
	}
	var seed int64 = 1
	if len(args) >= 6 {
		s, err := strconv.ParseInt(args[5], 10, 64)
		if err != nil {
			return nil, &sb.UsageError{Component: "gtcp", Usage: usage,
				Problem: fmt.Sprintf("seed %q is not an integer", args[5])}
		}
		seed = s
	}
	sim := New(args[0], args[1], slices, points, steps, seed)
	if len(args) == 7 {
		sc, err := strconv.Atoi(args[6])
		if err != nil || sc <= 0 {
			return nil, &sb.UsageError{Component: "gtcp", Usage: usage,
				Problem: fmt.Sprintf("subcycles %q is not a positive integer", args[6])}
		}
		sim.SubCycles = sc
	}
	return sim, nil
}

// Name implements sb.Component.
func (s *Sim) Name() string { return "gtcp" }

// Run implements sb.Component: each rank owns a contiguous band of
// toroidal slices and publishes its (ownSlices × points × 7) block.
func (s *Sim) Run(env *sb.Env) error {
	rank, size := env.Comm.Rank(), env.Comm.Size()
	if s.Slices < size {
		// The toroidal halo ring needs every rank to own at least one
		// slice; an empty band would break the periodic exchange.
		return fmt.Errorf("gtcp: %d ranks exceed %d toroidal slices; allocate at most one rank per slice", size, s.Slices)
	}
	offset, count := ndarray.Partition1D(s.Slices, size, rank)
	nq := len(Quantities)

	// field[q] is a (count × points) plane of quantity q on this rank.
	field := make([][]float64, nq)
	for q := range field {
		field[q] = make([]float64, count*s.Points)
	}
	rng := rand.New(rand.NewSource(s.Seed + int64(rank)*104729))
	s.initFields(field, offset, count, rng)

	var w *adios.Writer
	if s.Stream != "-" {
		group, depth, err := adios.EmbeddedGroup(ConfigXML, "toroid", "grid", s.Array)
		if err != nil {
			return fmt.Errorf("gtcp: %w", err)
		}
		w, err = env.OpenWriterGroup(s.Stream, group, depth)
		if err != nil {
			return fmt.Errorf("gtcp: attaching writer to %q: %w", s.Stream, err)
		}
		defer w.Close()
		w.SetStickyAttribute(components.HeaderAttr("quantities"), adios.JoinList(Quantities))
	}

	globalDims := []ndarray.Dim{
		{Name: "slices", Size: s.Slices},
		{Name: "points", Size: s.Points},
		{Name: "quantities", Size: nq},
	}
	box := ndarray.Box{Offsets: []int{offset, 0, 0}, Counts: []int{count, s.Points, nq}}
	buf := make([]float64, count*s.Points*nq)

	subCycles := s.SubCycles
	if subCycles <= 0 {
		subCycles = 1
	}
	for step := 0; step < s.Steps; step++ {
		begin := time.Now()
		for sub := 0; sub < subCycles; sub++ {
			below, above, err := exchangeToroidalHalos(env.Comm, field, count, s.Points)
			if err != nil {
				return err
			}
			s.evolve(field, offset, count, rng, below, above)
		}
		if w != nil {
			for sl := 0; sl < count; sl++ {
				for p := 0; p < s.Points; p++ {
					base := (sl*s.Points + p) * nq
					for q := 0; q < nq; q++ {
						buf[base+q] = field[q][sl*s.Points+p]
					}
				}
			}
			// A restarted run recomputes every step from its seed but
			// publishes, and records, only the steps its resumed writer
			// lacks.
			published, err := sb.PublishStep(env.Ctx(), w, step, s.Array, globalDims, box, buf)
			if err != nil {
				return fmt.Errorf("gtcp: step %d: %w", step, err)
			}
			if !published {
				continue
			}
		}
		env.Metrics.RecordStep(step, time.Since(begin), 0, int64(len(buf)*8))
	}
	return nil
}

// quantity indices into the field array.
const (
	qDensity = iota
	qTempPar
	qTempPerp
	qPressPar
	qPressPerp
	qFlux
	qPotential
)

// initFields seeds smooth toroidal profiles: density and temperature
// peak at the ring center and fall off toward the edge, with a poloidal
// modulation that differs per slice.
func (s *Sim) initFields(field [][]float64, offset, count int, rng *rand.Rand) {
	for sl := 0; sl < count; sl++ {
		zeta := 2 * math.Pi * float64(offset+sl) / float64(s.Slices)
		for p := 0; p < s.Points; p++ {
			theta := 2 * math.Pi * float64(p) / float64(s.Points)
			radial := 0.5 + 0.5*math.Cos(theta) // crude core/edge profile
			i := sl*s.Points + p
			field[qDensity][i] = 1.0 + 0.5*radial + 0.01*rng.NormFloat64()
			// Temperatures carry a positive pedestal (plasma edge is cold,
			// not negative), so the derived pressures stay physical.
			field[qTempPar][i] = 0.5 + 2.0*radial + 0.1*math.Sin(zeta) + 0.01*rng.NormFloat64()
			field[qTempPerp][i] = 0.5 + 2.2*radial + 0.1*math.Cos(zeta) + 0.01*rng.NormFloat64()
			field[qPressPar][i] = field[qDensity][i] * field[qTempPar][i]
			field[qPressPerp][i] = field[qDensity][i] * field[qTempPerp][i]
			field[qFlux][i] = 0.05 * math.Sin(theta+zeta)
			field[qPotential][i] = 0.2 * math.Cos(2*theta-zeta)
		}
	}
}

// evolve advances one fine-grained cycle: toroidal diffusion between
// neighboring slices (periodic, with cross-rank ends from the halo
// exchange), poloidal diffusion and drift within each ring, localized
// heating, and derived pressure updates.
func (s *Sim) evolve(field [][]float64, offset, count int, rng *rand.Rand, below, above slicePlane) {
	dt := s.Dt
	const (
		diffusion = 0.3
		toroidal  = 0.1
		drift     = 0.15
		heating   = 0.8
	)
	np := s.Points
	// Toroidal pass: Jacobi update against a snapshot of each slice's
	// neighbors so the sweep order does not bias the stencil.
	if s.Slices > 1 {
		plane := make([]float64, count*np)
		for k, q := range evolvedFields {
			src := field[q]
			for sl := 0; sl < count; sl++ {
				prev := below.Fields[k]
				if sl > 0 {
					prev = src[(sl-1)*np : sl*np]
				}
				next := above.Fields[k]
				if sl < count-1 {
					next = src[(sl+1)*np : (sl+2)*np]
				}
				cur := src[sl*np : (sl+1)*np]
				out := plane[sl*np : (sl+1)*np]
				for p := 0; p < np; p++ {
					out[p] = cur[p] + dt*toroidal*(prev[p]+next[p]-2*cur[p])
				}
			}
			copy(src, plane)
		}
	}
	scratch := make([]float64, np)
	for _, q := range evolvedFields {
		plane := field[q]
		for sl := 0; sl < count; sl++ {
			ring := plane[sl*np : (sl+1)*np]
			for p := 0; p < np; p++ {
				left := ring[(p+np-1)%np]
				right := ring[(p+1)%np]
				lap := left + right - 2*ring[p]
				adv := (right - left) / 2
				scratch[p] = ring[p] + dt*(diffusion*lap-drift*adv)
			}
			copy(ring, scratch)
		}
	}
	// Heating deposits energy near the outboard midplane; plus weak noise
	// so per-step histograms are not static.
	for sl := 0; sl < count; sl++ {
		for p := 0; p < np; p++ {
			theta := 2 * math.Pi * float64(p) / float64(np)
			i := sl*np + p
			dep := heating * math.Exp(-4*(theta-math.Pi/2)*(theta-math.Pi/2))
			field[qTempPar][i] += dt * dep
			field[qTempPerp][i] += dt * dep * 1.1
			field[qTempPar][i] += 0.002 * rng.NormFloat64()
			field[qTempPerp][i] += 0.002 * rng.NormFloat64()
			// Physical floor: temperatures cannot relax below the edge
			// pedestal, which also keeps pressures positive.
			if field[qTempPar][i] < 0.05 {
				field[qTempPar][i] = 0.05
			}
			if field[qTempPerp][i] < 0.05 {
				field[qTempPerp][i] = 0.05
			}
			// Pressures are diagnostic products of density and temperature.
			field[qPressPar][i] = field[qDensity][i] * field[qTempPar][i]
			field[qPressPerp][i] = field[qDensity][i] * field[qTempPerp][i]
		}
	}
}

func init() { components.Register("gtcp", NewFromArgs) }

// Ports implements sb.PortDeclarer: the simulation drives the workflow,
// publishing its field array (nothing when output is disabled).
func (s *Sim) Ports() []sb.Port {
	if s.Stream == "-" {
		return nil
	}
	return []sb.Port{{Dir: sb.PortOut, Stream: s.Stream, Array: s.Array}}
}
