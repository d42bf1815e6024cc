package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/adios"
	"repro/internal/components"
	"repro/internal/flexpath"
	"repro/internal/ndarray"
	"repro/internal/sb"
	"repro/internal/sim/gromacs"
	"repro/internal/sim/lammps"
	"repro/internal/streamlog"
	"repro/internal/workflow"
)

// Stream and stage names shared by every workload, so per-layer metric
// names are the same everywhere. src is the producer's stream, mag the
// terminal stream Histogram reads.
const (
	streamSrc = "src"
	streamSel = "sel"
	streamMag = "mag"

	bins = 64
)

var (
	allStreams = []string{streamSrc, streamSel, streamMag}
	allStages  = []string{"select", "magnitude", "histogram"}
	mapStages  = allStages[:2] // the stages with a timed MapSpec kernel
)

// workload is one benchmark input set and the workflow that consumes it.
type workload struct {
	name  string
	steps int // timesteps per workflow run

	// feed-* inputs: particles x 5 LAMMPS-shaped rows per step.
	particles int
	inputs    [][]float64
	shm       bool // shm backend with a durable log and a catch-up reader

	// sim-gromacs parameters.
	atoms, subcycles int
	seed             int64

	// ref holds the expected histogram of every step.
	ref []components.StepHistogram
}

// Workload sizes. A feed step is 20000 x 5 float64 = 800 KB of payload.
const (
	feedParticles = 50000
	feedSteps     = 60
	gromacsAtoms  = 6000
	gromacsSteps  = 80
	gromacsCycles = 2
)

var workloadNames = []string{"sim-gromacs", "feed-chain", "feed-shm-durable"}

// newWorkload builds a workload's inputs and reference from the seed.
func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "sim-gromacs":
		w := &workload{name: name, steps: gromacsSteps, atoms: gromacsAtoms, subcycles: gromacsCycles, seed: seed}
		ref, err := gromacsReference(w)
		if err != nil {
			return nil, err
		}
		w.ref = ref
		return w, nil
	case "feed-chain", "feed-shm-durable":
		w := &workload{name: name, steps: feedSteps, particles: feedParticles, shm: name == "feed-shm-durable"}
		w.inputs = generateParticles(seed, w.particles, w.steps)
		w.ref = feedReference(w.inputs)
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// generateParticles makes steps of LAMMPS-shaped rows (ID, Type, vx, vy,
// vz) from the seed: velocities drift a little every step, as a
// simulation's would.
func generateParticles(seed int64, particles, steps int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	cols := len(lammps.Props)
	vel := make([]float64, particles*3)
	for i := range vel {
		vel[i] = rng.NormFloat64()
	}
	out := make([][]float64, steps)
	for s := range out {
		rows := make([]float64, particles*cols)
		for i := 0; i < particles; i++ {
			row := rows[i*cols : (i+1)*cols]
			row[0] = float64(i + 1)
			row[1] = float64(1 + i%3)
			for c := 0; c < 3; c++ {
				vel[i*3+c] += 0.05 * rng.NormFloat64()
				row[2+c] = vel[i*3+c]
			}
		}
		out[s] = rows
	}
	return out
}

// magnitudes computes |(vx, vy, vz)| per row, summing squares in column
// order like a single Magnitude rank.
func magnitudes(vecs []float64, comps int) []float64 {
	out := make([]float64, len(vecs)/comps)
	for p := range out {
		sum := 0.0
		for _, c := range vecs[p*comps : (p+1)*comps] {
			sum += c * c
		}
		out[p] = math.Sqrt(sum)
	}
	return out
}

// histogram bins values between their extremes, the last bin closed at
// the maximum.
func histogram(step int, vals []float64) components.StepHistogram {
	h := components.StepHistogram{Step: step, Counts: make([]int64, bins), Min: math.Inf(1), Max: math.Inf(-1)}
	for _, v := range vals {
		h.Min = math.Min(h.Min, v)
		h.Max = math.Max(h.Max, v)
	}
	width := (h.Max - h.Min) / bins
	for _, v := range vals {
		b := 0
		if width != 0 {
			b = int((v - h.Min) / width)
			if b >= bins {
				b = bins - 1
			}
		}
		h.Counts[b]++
		h.Total++
	}
	return h
}

func feedReference(inputs [][]float64) []components.StepHistogram {
	cols := len(lammps.Props)
	ref := make([]components.StepHistogram, len(inputs))
	for s, rows := range inputs {
		vecs := make([]float64, 0, len(rows)/cols*3)
		for i := 0; i < len(rows); i += cols {
			vecs = append(vecs, rows[i+2:i+5]...)
		}
		ref[s] = histogram(s, magnitudes(vecs, 3))
	}
	return ref
}

// gromacsReference runs the seeded sim alone and bins the distances of
// its published coordinates, without the Magnitude and Histogram
// components under test.
func gromacsReference(w *workload) ([]components.StepHistogram, error) {
	capture := &captureRef{stream: streamSrc, array: "positions", comps: 3}
	spec := workflow.Spec{Name: "gromacs-reference", Stages: []workflow.Stage{
		{Component: "gromacs", Procs: 1, Instance: w.gromacsSim()},
		{Component: "capture", Procs: 1, Instance: capture},
	}}
	if _, err := workflow.Run(bgCtx, sb.Fabric{T: flexpath.NewInProc()}, spec, workflow.Options{}); err != nil {
		return nil, fmt.Errorf("gromacs reference run: %w", err)
	}
	return capture.ref, nil
}

func (w *workload) gromacsSim() *gromacs.Sim {
	sim := gromacs.New(streamSrc, "positions", w.atoms, w.steps, w.seed)
	sim.SubCycles = w.subcycles
	return sim
}

// captureRef is a one-rank reader that bins each step's vector
// magnitudes itself.
type captureRef struct {
	stream, array string
	comps         int
	ref           []components.StepHistogram
}

func (c *captureRef) Name() string { return "capture" }

func (c *captureRef) Run(env *sb.Env) error {
	r, err := env.OpenReader(c.stream)
	if err != nil {
		return err
	}
	defer r.Close()
	for {
		info, err := r.BeginStep(env.Ctx())
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		arr, err := r.ReadAll(env.Ctx(), c.array)
		if err != nil {
			return err
		}
		c.ref = append(c.ref, histogram(info.Step, magnitudes(arr.Data(), c.comps)))
		if err := r.EndStep(); err != nil {
			return err
		}
	}
}

// feeder publishes pre-generated steps as fast as backpressure allows:
// the producer of the feed-* workloads, with no compute of its own.
type feeder struct {
	inputs    [][]float64
	particles int
}

func (f *feeder) Name() string { return "feeder" }

func (f *feeder) Run(env *sb.Env) error {
	cols := len(lammps.Props)
	offset, count := ndarray.Partition1D(f.particles, env.Comm.Size(), env.Comm.Rank())
	w, err := env.OpenWriterGroup(streamSrc, nil, 0)
	if err != nil {
		return fmt.Errorf("feeder: attaching writer: %w", err)
	}
	defer w.Close()
	w.SetStickyAttribute(components.HeaderAttr("props"), adios.JoinList(lammps.Props))
	dims := []ndarray.Dim{{Name: "particles", Size: f.particles}, {Name: "props", Size: cols}}
	box := ndarray.Box{Offsets: []int{offset, 0}, Counts: []int{count, cols}}
	for step := w.Steps(); step < len(f.inputs); step++ {
		if err := w.BeginStep(); err != nil {
			return err
		}
		if err := w.Write("atoms", dims, box, f.inputs[step][offset*cols:(offset+count)*cols]); err != nil {
			return fmt.Errorf("feeder: step %d: %w", step, err)
		}
		if err := w.EndStep(env.Ctx()); err != nil {
			return fmt.Errorf("feeder: step %d: %w", step, err)
		}
	}
	return nil
}

// stageSet is one run's stages plus the handles the benchmark reads
// after the run: the histogram results and the map stages' kernel logs.
type stageSet struct {
	spec    workflow.Spec
	hist    *components.Histogram
	kernels map[string]*kernelLog
	stages  []stageWiring
}

// stageWiring names the input and output stream of a stage, for the
// per-stage self time.
type stageWiring struct{ name, in, out string }

// build assembles the workflow. With timeKernels each map stage runs
// its own MapSpec kernel through sb.RunMap under a timing decorator;
// otherwise the components run as they are.
func (w *workload) build(timeKernels bool) *stageSet {
	set := &stageSet{kernels: map[string]*kernelLog{}}
	var producer workflow.Stage
	var maps []sb.Fusable
	var termArray string
	if w.inputs == nil {
		producer = workflow.Stage{Component: "gromacs", Procs: 1, Instance: w.gromacsSim()}
		maps = []sb.Fusable{&components.Magnitude{InStream: streamSrc, InArray: "positions", OutStream: streamMag, OutArray: "dist"}}
		termArray = "dist"
	} else {
		producer = workflow.Stage{Component: "feeder", Procs: 1, Instance: &feeder{inputs: w.inputs, particles: w.particles}}
		maps = []sb.Fusable{
			&components.Select{InStream: streamSrc, InArray: "atoms", DimIndex: 1,
				OutStream: streamSel, OutArray: "vel", Names: []string{"vx", "vy", "vz"}},
			&components.Magnitude{InStream: streamSel, InArray: "vel", OutStream: streamMag, OutArray: "speed"},
		}
		termArray = "speed"
	}
	set.spec = workflow.Spec{Name: w.name, Stages: []workflow.Stage{producer}}
	for _, m := range maps {
		cfg, _ := m.MapSpec()
		set.stages = append(set.stages, stageWiring{name: m.Name(), in: cfg.InStream, out: cfg.OutStream})
		var inst sb.Component = m
		if timeKernels {
			tm := newTimedMap(m)
			set.kernels[m.Name()] = tm.log
			inst = tm
		}
		set.spec.Stages = append(set.spec.Stages, workflow.Stage{Component: m.Name(), Procs: 1, Instance: inst})
	}
	set.hist = &components.Histogram{InStream: streamMag, InArray: termArray, NumBins: bins}
	set.stages = append(set.stages, stageWiring{name: "histogram", in: streamMag})
	set.spec.Stages = append(set.spec.Stages, workflow.Stage{Component: "histogram", Procs: 1, Instance: set.hist})
	return set
}

// fabric is one run's stream backend.
type fabric struct {
	t       sb.Transport
	broker  *flexpath.Broker
	store   *streamlog.Store         // durable log (shm workload only)
	replay  flexpath.ReplayTransport // catch-up reader entry (shm workload only)
	cleanup func()
}

// shmSegmentBytes bounds the mapped segment: three writers, each with a
// ring of queue depth + 1 slots of 4 MiB.
const shmSegmentBytes = 64 << 20

// openFabric builds a fresh backend for one run. The shm backend keeps
// its socket, segment and log under dir, relative to the working
// directory so the socket path stays short.
func (w *workload) openFabric(dir string) (*fabric, error) {
	b := flexpath.NewBroker()
	if !w.shm {
		return &fabric{t: sb.Fabric{T: flexpath.InProc{B: b}}, broker: b, cleanup: func() {}}, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	store, err := streamlog.OpenStore(filepath.Join(dir, "log"), streamlog.Options{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	b.AttachLog(store)
	srv, err := flexpath.NewShmServer(b, filepath.Join(dir, "b.sock"), flexpath.ShmConfig{SegmentBytes: shmSegmentBytes})
	if err != nil {
		store.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	client := flexpath.DialShm(srv.Addr())
	return &fabric{t: sb.Fabric{T: client}, broker: b, store: store, replay: client, cleanup: func() {
		client.Close()
		srv.Close()
		store.Close()
		os.RemoveAll(dir)
	}}, nil
}
