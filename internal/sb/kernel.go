package sb

import (
	"context"

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
	ReservedAxes(v *adios.GlobalVar, info *adios.StepInfo) ([]int, error)
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

// axisReserver is the ReservedAxes method MapKernel and ReduceKernel
// share.
type axisReserver interface {
	ReservedAxes(v *adios.GlobalVar, info *adios.StepInfo) ([]int, error)
}

// partitionFor computes the box one rank reads of variable v for the
// given kernel: the kernel reserves axes that must stay whole, the
// policy picks the partition axis among the rest.
func partitionFor(kernel axisReserver, policy PartitionPolicy, v *adios.GlobalVar, info *adios.StepInfo, size, rank int) (ndarray.Box, error) {
	reserved, err := kernel.ReservedAxes(v, info)
	if err != nil {
		return ndarray.Box{}, err
	}
	axis, err := ChooseAxis(policy, v.Shape(), reserved...)
	if err != nil {
		return ndarray.Box{}, err
	}
	return PartitionBox(v.Shape(), axis, size, rank), nil
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

// publishOutput republishes one kernel output downstream with
// exactly-once semantics: a restarted rank that crashed between
// publishing step N and releasing its input re-reads step N but must
// not publish it twice — the resumed writer is already past it.
// upstreamAttrs are forwarded first when the config asks for it, then
// the kernel's own attributes override.
func publishOutput(env *Env, cfg MapConfig, w *adios.Writer, ctx context.Context, step int,
	upstreamAttrs map[string]string, out *StepOutput) error {
	if w.Steps() > step {
		return nil
	}
	if err := w.BeginStep(); err != nil {
		return err
	}
	if cfg.ForwardAttrs {
		for k, val := range upstreamAttrs {
			if err := w.SetAttribute(k, val); err != nil {
				return err
			}
		}
	}
	for k, val := range out.Attrs {
		if err := w.SetAttribute(k, val); err != nil {
			return err
		}
	}
	if err := w.Write(cfg.OutArray, out.GlobalDims, out.Box, out.Data); err != nil {
		return err
	}
	return w.EndStep(ctx)
}
