package sb

import (
	"context"
	"fmt"

	"repro/internal/adios"
	"repro/internal/ndarray"
	"repro/internal/obs"
)

// StepInput is what a map-style kernel sees each timestep on each rank:
// the step's self-describing metadata, the variable it operates on, the
// bounding box this rank was assigned, and the block read from it.
type StepInput struct {
	Info  *adios.StepInfo
	Var   *adios.GlobalVar
	Box   ndarray.Box
	Block *ndarray.Array
	Env   *Env
	// Reader is the step's open reader, for kernels that need data beyond
	// their own partition (e.g. AllPairs re-reads the shared sample).
	Reader *adios.Reader
}

// StepOutput is a kernel's locally computed result: this rank's block of
// the output array, its position in the output global space, and any
// attributes to attach downstream.
type StepOutput struct {
	GlobalDims []ndarray.Dim
	Box        ndarray.Box
	Data       []float64
	Attrs      map[string]string
}

// MapKernel is the contract shared by the paper's data-transformation
// components (Select, Magnitude, Dim-Reduce): a purely local, per-rank
// transformation of a partitioned block, where the global output layout
// is derivable from the global input layout.
type MapKernel interface {
	// ReservedAxes lists input axes that must not be partitioned (for
	// example, the axis Select filters). May return nil.
	AxisReserver
	// Transform computes this rank's output block from its input block.
	Transform(in *StepInput) (*StepOutput, error)
}

// MapConfig wires a MapKernel into a runnable component.
type MapConfig struct {
	// Name of the component kind, for errors and metrics.
	Name string
	// InStream / InArray identify the input.
	InStream, InArray string
	// OutStream / OutArray identify the output.
	OutStream, OutArray string
	// Policy selects the partition axis (default PartitionFirstFree).
	Policy PartitionPolicy
	// ForwardAttrs propagates all upstream attributes downstream unless
	// the kernel overrides them — the paper's guideline of maintaining
	// high-level semantics through components that do not require them
	// (§III-A3).
	ForwardAttrs bool
}

// RunMap executes the shared per-rank loop of a map-style component:
// attach to the input and output streams, and for every timestep read
// this rank's partition, transform it, and republish — until the input
// stream ends. It records one env.Metrics sample per timestep. An
// unfused stage is the one-kernel case of the fused chain runner
// (runChain), so both share one step loop.
func RunMap(env *Env, cfg MapConfig, kernel MapKernel) error {
	return runChain(env, cfg.Name, []FusedPart{{Cfg: cfg, Kernel: kernel}}, []*Metrics{env.Metrics})
}

// AxisReserver names the input axes a component's partition must keep
// whole — the ReservedAxes method MapKernel and ReduceKernel share.
type AxisReserver interface {
	ReservedAxes(v *adios.GlobalVar, info *adios.StepInfo) ([]int, error)
}

// partitionFor computes the box one rank reads of variable v: the
// reserver (nil reserves nothing) keeps axes whole, the policy picks the
// partition axis among the rest.
func partitionFor(reserve AxisReserver, policy PartitionPolicy, v *adios.GlobalVar, info *adios.StepInfo, size, rank int) (ndarray.Box, error) {
	var reserved []int
	if reserve != nil {
		var err error
		if reserved, err = reserve.ReservedAxes(v, info); err != nil {
			return ndarray.Box{}, err
		}
	}
	shape := v.Shape()
	axis, err := ChooseAxis(policy, shape, reserved...)
	if err != nil {
		return ndarray.Box{}, err
	}
	return ndarray.PartitionAlong(shape, axis, size, rank), nil
}

// ReadPartition is the read half of every component's step: it looks
// array up in the open step's metadata, splits its global shape across
// env's communicator along the axis policy picks among those reserve
// leaves whole (nil reserves nothing), and reads this rank's box from
// r. The input keeps r for kernels that read beyond their partition.
func ReadPartition(ctx context.Context, env *Env, r *adios.Reader, info *adios.StepInfo,
	array string, policy PartitionPolicy, reserve AxisReserver) (*StepInput, error) {
	v, ok := info.Var(array)
	if !ok {
		return nil, fmt.Errorf("input has no array %q", array)
	}
	box, err := partitionFor(reserve, policy, v, info, env.Comm.Size(), env.Comm.Rank())
	if err != nil {
		return nil, err
	}
	block, err := r.ReadBox(ctx, array, box)
	if err != nil {
		return nil, err
	}
	return &StepInput{Info: info, Var: v, Box: box, Block: block, Env: env, Reader: r}, nil
}

// transformKernel runs one kernel Transform with its kernel.transform
// span, emitted under stepSpan whether the call succeeds or fails.
func transformKernel(env *Env, name, stream string, kernel MapKernel, stepSpan obs.SpanID, step int, in *StepInput) (*StepOutput, error) {
	tr := env.Tracer
	var kStart int64
	if tr.Enabled() {
		kStart = tr.Now()
	}
	out, err := kernel.Transform(in)
	if tr.Enabled() {
		span := obs.Span{Kind: obs.KindKernelTransform, Parent: stepSpan,
			Stream: stream, Step: step, Rank: env.Comm.Rank(), Peer: -1,
			Bytes: int64(in.Block.Size() * 8), Epoch: env.Epoch, Note: name, Start: kStart}
		if err != nil {
			span.Err = err.Error()
		}
		tr.Emit(span)
	}
	return out, err
}

// PublishStep is the publish half of every component's and
// simulation's step: it writes this rank's block of array — its global
// layout, box and data, as adios.Writer.Write takes them — as step step
// of w's stream, exactly once. A restarted rank re-arrives at steps its
// previous incarnation already published (a component that crashed
// between publishing step N and releasing its input re-reads step N; a
// simulation recomputes from its seed), but the resumed writer is past
// them, so PublishStep publishes nothing and reports false. attrs are
// set in order, so a later map overrides an earlier one.
func PublishStep(ctx context.Context, w *adios.Writer, step int, array string,
	globalDims []ndarray.Dim, box ndarray.Box, data []float64, attrs ...map[string]string) (bool, error) {
	if w.Steps() > step {
		return false, nil
	}
	if err := w.BeginStep(); err != nil {
		return false, err
	}
	for _, m := range attrs {
		for k, val := range m {
			if err := w.SetAttribute(k, val); err != nil {
				return false, err
			}
		}
	}
	if err := w.Write(array, globalDims, box, data); err != nil {
		return false, err
	}
	if err := w.EndStep(ctx); err != nil {
		return false, err
	}
	return true, nil
}
