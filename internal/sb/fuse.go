package sb

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/adios"
	"repro/internal/mpi"
	"repro/internal/ndarray"
	"repro/internal/obs"
)

// Fusable is implemented by map-style components — those whose Run is a
// single RunMap call — and exposes the kernel seam the stage-fusion
// optimizer composes: the MapConfig naming the component's streams and
// the MapKernel doing the work. A fused stage chains these kernels
// back-to-back on shared ndarray buffers, skipping the broker hop the
// intermediate stream would have cost.
//
// Components whose kernels read beyond their own partition (AllPairs
// re-reads the shared sample through StepInput.Reader) must NOT
// implement Fusable: interior stages of a fused chain have no open
// reader to reach back into.
type Fusable interface {
	Component
	MapSpec() (MapConfig, MapKernel)
}

// FusedPart is one original component inside a fused stage.
type FusedPart struct {
	Cfg    MapConfig
	Kernel MapKernel
}

// Fused runs a chain of map-style kernels as a single stage: one reader
// on the chain's first input stream, one writer on its last output
// stream, and direct in-memory handoffs in between. Each original
// component keeps its externally observable identity — its own
// stage.step and kernel.transform spans and its own comp.<name>.*
// metrics — so a trace of a fused workflow still shows every component
// the launch script named.
type Fused struct {
	parts []FusedPart
	name  string

	metricsOnce sync.Once
	metrics     []*Metrics
}

// NewFused composes components into a fused stage. Every component must
// implement Fusable, and each one's output stream and array must be the
// next one's input — the 1:1 edge contract the planner checks before
// electing a chain for fusion.
func NewFused(comps ...Component) (*Fused, error) {
	if len(comps) < 2 {
		return nil, fmt.Errorf("sb: fusing needs at least 2 components, got %d", len(comps))
	}
	parts := make([]FusedPart, len(comps))
	names := make([]string, len(comps))
	for i, c := range comps {
		fc, ok := c.(Fusable)
		if !ok {
			return nil, fmt.Errorf("sb: component %q is not fusable", c.Name())
		}
		cfg, kernel := fc.MapSpec()
		parts[i] = FusedPart{Cfg: cfg, Kernel: kernel}
		names[i] = cfg.Name
		if i > 0 {
			prev := parts[i-1].Cfg
			if prev.OutStream != cfg.InStream {
				return nil, fmt.Errorf("sb: cannot fuse %q into %q: output stream %q != input stream %q",
					prev.Name, cfg.Name, prev.OutStream, cfg.InStream)
			}
			if prev.OutArray != cfg.InArray {
				return nil, fmt.Errorf("sb: cannot fuse %q into %q: output array %q != input array %q",
					prev.Name, cfg.Name, prev.OutArray, cfg.InArray)
			}
		}
	}
	return &Fused{parts: parts, name: strings.Join(names, "+")}, nil
}

// Name implements Component: the fused stage is named after its chain,
// e.g. "select+magnitude".
func (f *Fused) Name() string { return f.name }

// Parts returns the names of the fused components, in chain order.
func (f *Fused) Parts() []string {
	out := make([]string, len(f.parts))
	for i, p := range f.parts {
		out[i] = p.Cfg.Name
	}
	return out
}

// InteriorStreams returns the streams the fusion elided — the chain's
// internal edges that no longer touch the fabric.
func (f *Fused) InteriorStreams() []string {
	out := make([]string, 0, len(f.parts)-1)
	for _, p := range f.parts[1:] {
		out = append(out, p.Cfg.InStream)
	}
	return out
}

// Ports implements PortDeclarer: externally the fused stage subscribes
// to the chain's first input and publishes its last output — the
// interior streams do not exist.
func (f *Fused) Ports() []Port {
	first, last := f.parts[0].Cfg, f.parts[len(f.parts)-1].Cfg
	return []Port{
		{Dir: PortIn, Stream: first.InStream, Array: first.InArray},
		{Dir: PortOut, Stream: last.OutStream, Array: last.OutArray},
	}
}

// ensureMetrics creates the per-component collectors once; reg may be
// nil (no registry mirroring).
func (f *Fused) ensureMetrics(reg *obs.Registry) {
	f.metricsOnce.Do(func() {
		f.metrics = make([]*Metrics, len(f.parts))
		for i, p := range f.parts {
			f.metrics[i] = NewMetrics(p.Cfg.Name)
			f.metrics[i].BindRegistry(reg)
		}
	})
}

// BindMetrics creates one metrics collector per fused component, bound
// to the registry, and returns them in chain order. The workflow runner
// calls this instead of creating a single stage-level collector, so a
// fused run still reports comp.<name>.* for every original component.
func (f *Fused) BindMetrics(reg *obs.Registry) []*Metrics {
	f.ensureMetrics(reg)
	return f.metrics
}

// StageMetrics returns the per-component collectors (nil before the
// first Run or BindMetrics).
func (f *Fused) StageMetrics() []*Metrics { return f.metrics }

// Run implements Component: the fused per-rank loop. One reader, one
// writer, and for every timestep the kernels run back-to-back — each
// handing its output block to the next over the stage's communicator
// (see handoff), never through the broker.
func (f *Fused) Run(env *Env) error {
	f.ensureMetrics(env.Registry)
	return runChain(env, f.name, f.parts, f.metrics)
}

// runChain is the one map-stage step loop, shared by Fused.Run and
// RunMap (a one-part chain): the stage named name runs parts in order,
// recording part k's steps into metrics[k] (nil records nothing). The
// slices are parameters, not fields of a struct, so RunMap's one-part
// slices can stay on the stack.
func runChain(env *Env, name string, parts []FusedPart, metrics []*Metrics) error {
	first, last := parts[0].Cfg, parts[len(parts)-1].Cfg
	r, err := env.OpenReader(first.InStream)
	if err != nil {
		return fmt.Errorf("%s: attaching reader to %q: %w", name, first.InStream, err)
	}
	defer r.Close()
	w, err := env.OpenWriter(last.OutStream)
	if err != nil {
		return fmt.Errorf("%s: attaching writer to %q: %w", name, last.OutStream, err)
	}
	defer w.Close()

	for {
		// Step boundary: the elastic-rescale supervisor interrupts here,
		// after the previous step fully settled and before any work on the
		// next, so a detach leaves nothing half-published.
		if env.Interrupt != nil {
			if err := env.Interrupt(); err != nil {
				// The supervisor will detach the handles; keep the defer
				// chain's graceful closes from ending the streams first.
				env.Handles.Suspend()
				return err
			}
		}
		step := r.NextStep() // absolute: a re-attached reader resumes mid-stream
		eof, err := runChainStep(env, name, parts, metrics, r, w, step)
		if eof {
			if env.Logf != nil {
				env.Logf("%s rank %d: input stream %q ended after %d steps", name, env.Comm.Rank(), first.InStream, step)
			}
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// runChainStep executes one timestep through the whole chain: wait for the
// step, read this rank's partition, run every kernel, republish (unless
// the resumed writer already has), release. The input step stays open
// until the final output is published, so a crash anywhere mid-chain
// leaves the step unreleased and a supervised restart recomputes it
// from the stream.
//
// Each part gets its own stage.step span, allocated up front and
// carried into every transport call of the part via the step context,
// so fabric spans nest under it. The span is emitted once the part
// settles — successfully or not — so a trace never contains a child
// whose parent was lost to a failure. The last part settles after the
// input release, so its span and its active time include it. Active
// time excludes waiting for the producer.
func runChainStep(env *Env, name string, parts []FusedPart, metrics []*Metrics,
	r *adios.Reader, w *adios.Writer, step int) (eof bool, err error) {
	rank := env.Comm.Rank()
	tr := env.Tracer
	lastPart := len(parts) - 1

	var info *adios.StepInfo // the current (real or virtual) step metadata
	var out *StepOutput      // the previous kernel's output
	for k := range parts {
		part := &parts[k]
		cfg := part.Cfg
		ctx := env.Ctx()
		var stepSpan obs.SpanID
		var stepStart int64
		if tr.Enabled() {
			stepSpan = tr.NextID()
			ctx = obs.WithParent(ctx, stepSpan)
			stepStart = tr.Now()
		}
		begin := time.Now()

		var in *StepInput
		if k == 0 {
			stepInfo, rerr := r.BeginStep(ctx)
			if errors.Is(rerr, io.EOF) {
				return true, nil
			}
			if rerr == nil {
				info = stepInfo
				begin = time.Now()
				in, rerr = ReadPartition(ctx, env, r, info, cfg.InArray, cfg.Policy, part.Kernel)
			}
			if rerr != nil {
				err = fmt.Errorf("%s: step %d: %w", cfg.Name, step, rerr)
			}
		} else {
			info = handoffInfo(&parts[k-1].Cfg, info, out, step)
			in, err = handoff(env, cfg, part.Kernel, info, out, step)
		}
		var bytesIn, bytesOut int64
		if err == nil {
			bytesIn = int64(in.Block.Size() * 8)
			out, err = transformKernel(env, cfg.Name, cfg.InStream, part.Kernel, stepSpan, step, in)
			if err != nil {
				err = fmt.Errorf("%s: step %d: %w", cfg.Name, step, err)
			}
		}
		if err == nil {
			bytesOut = int64(len(out.Data) * 8)
			if k == lastPart {
				var upstream map[string]string
				if cfg.ForwardAttrs {
					upstream = info.Attrs
				}
				if _, perr := PublishStep(ctx, w, step, cfg.OutArray, out.GlobalDims, out.Box, out.Data, upstream, out.Attrs); perr != nil {
					err = fmt.Errorf("%s: step %d: %w", cfg.Name, step, perr)
				} else if rerr := r.EndStep(); rerr != nil {
					err = fmt.Errorf("%s: step %d: %w", name, step, rerr)
				}
			}
		}
		if tr.Enabled() {
			span := obs.Span{ID: stepSpan, Kind: obs.KindStageStep,
				Stream: cfg.InStream, Step: step, Rank: rank, Peer: -1,
				Bytes: bytesIn, Epoch: env.Epoch, Note: cfg.Name, Start: stepStart}
			if err != nil {
				span.Err = err.Error()
			}
			tr.Emit(span)
		}
		if err != nil {
			return false, err
		}
		metrics[k].RecordStep(step, time.Since(begin), bytesIn, bytesOut)
	}
	return false, nil
}

// handoffBlock is one rank's kernel output as the fused handoff
// gathers it: the step it belongs to, its box in the (virtual) global
// array, and its row-major data.
type handoffBlock struct {
	step int
	box  ndarray.Box
	data []float64
}

// handoff turns the previous kernel's output into the next kernel's
// input. The next kernel partitions the (virtual) global array exactly
// as it would have partitioned the stream. Every rank gathers every
// rank's output block over the stage's communicator; when one of them
// is exactly this rank's box it is used in place, otherwise the rank
// assembles its box from the blocks. The gather is collective and
// carries no state between steps, so a restarted attempt resumes at any
// step, and a rank that fails aborts its peers' gather with it.
func handoff(env *Env, cfg MapConfig, kernel MapKernel, info *adios.StepInfo, prev *StepOutput, step int) (*StepInput, error) {
	v := info.Vars[0]
	box, err := partitionFor(kernel, cfg.Policy, v, info, env.Comm.Size(), env.Comm.Rank())
	if err != nil {
		return nil, fmt.Errorf("%s: step %d: %w", cfg.Name, step, err)
	}
	blocks, err := mpi.Allgather(env.Comm, handoffBlock{step: step, box: prev.Box, data: prev.Data})
	if err != nil {
		return nil, fmt.Errorf("%s: step %d: fused handoff: %w", cfg.Name, step, err)
	}
	block, err := assembleHandoff(v.Dims, box, blocks, step)
	if err != nil {
		return nil, fmt.Errorf("%s: step %d: fused handoff: %w", cfg.Name, step, err)
	}
	return &StepInput{Info: info, Var: v, Box: box, Block: block, Env: env}, nil
}

// assembleHandoff builds box from the gathered blocks of one step:
// a block that is exactly box is shared, not copied.
func assembleHandoff(dims []ndarray.Dim, box ndarray.Box, blocks []handoffBlock, step int) (*ndarray.Array, error) {
	boxes := make([]ndarray.Box, len(blocks))
	for i, b := range blocks {
		if b.step != step {
			return nil, fmt.Errorf("rank %d handed off step %d", i, b.step)
		}
		boxes[i] = b.box
	}
	for _, b := range blocks {
		if b.box.Equal(box) {
			shared := make([]ndarray.Dim, len(dims))
			for i, d := range dims {
				shared[i] = ndarray.Dim{Name: d.Name, Size: box.Counts[i]}
			}
			return ndarray.FromData(b.data, shared...)
		}
	}
	return ndarray.Assemble(dims, box, boxes, func(i int) ([]float64, error) { return blocks[i].data, nil })
}

// handoffInfo builds the virtual step metadata the next kernel sees:
// the previous kernel's output variable plus exactly the attributes the
// previous stage would have published downstream (forwarded upstream
// attributes when its config asks for it, then its own overrides).
func handoffInfo(prevCfg *MapConfig, prevInfo *adios.StepInfo, out *StepOutput, step int) *adios.StepInfo {
	attrs := make(map[string]string, len(out.Attrs))
	if prevCfg.ForwardAttrs {
		for k, v := range prevInfo.Attrs {
			attrs[k] = v
		}
	}
	for k, v := range out.Attrs {
		attrs[k] = v
	}
	return &adios.StepInfo{
		Step:  step,
		Vars:  []*adios.GlobalVar{{Name: prevCfg.OutArray, Dims: out.GlobalDims}},
		Attrs: attrs,
	}
}
