package components

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/adios"
	"repro/internal/ndarray"
	"repro/internal/sb"
)

const concatUsage = "input-stream-1 input-array-1 input-stream-2 input-array-2 concat-axis output-stream-name output-array-name"

// Concat is a two-input component: per timestep it joins the arrays from
// two upstream streams along a chosen axis. It is the simplest member of
// the multi-input family that turns SmartBlock pipelines into general
// DAGs (together with Fork on the output side, §VI): two simulations'
// fields can be merged for one analysis, or a Fork's branches re-joined
// after different transforms. Both inputs must agree on every dimension
// except the concatenation axis; the first input's labels win.
type Concat struct {
	InStream1, InArray1 string
	InStream2, InArray2 string
	Axis                int
	OutStream, OutArray string
	Policy              sb.PartitionPolicy
}

// NewConcat parses: in-stream-1 in-array-1 in-stream-2 in-array-2 axis
// out-stream out-array.
func NewConcat(args []string) (sb.Component, error) {
	if len(args) != 7 {
		return nil, &sb.UsageError{Component: "concat", Usage: concatUsage,
			Problem: fmt.Sprintf("need exactly 7 arguments, got %d", len(args))}
	}
	axis, err := strconv.Atoi(args[4])
	if err != nil || axis < 0 {
		return nil, &sb.UsageError{Component: "concat", Usage: concatUsage,
			Problem: fmt.Sprintf("concat-axis %q is not a non-negative integer", args[4])}
	}
	if args[0] == args[2] {
		return nil, &sb.UsageError{Component: "concat", Usage: concatUsage,
			Problem: "the two input streams must differ (a stream has one reader group)"}
	}
	return &Concat{
		InStream1: args[0], InArray1: args[1],
		InStream2: args[2], InArray2: args[3],
		Axis:      axis,
		OutStream: args[5], OutArray: args[6],
	}, nil
}

// Name implements sb.Component.
func (c *Concat) Name() string { return "concat" }

// Run implements sb.Component. Each rank partitions both inputs along
// the same non-concat axis, joins its two local blocks along the concat
// axis, and publishes the joined block: the output box equals the
// partition box with the concat extent widened to the sum of the inputs.
func (c *Concat) Run(env *sb.Env) error {
	r1, err := env.OpenReader(c.InStream1)
	if err != nil {
		return fmt.Errorf("concat: attaching reader to %q: %w", c.InStream1, err)
	}
	defer r1.Close()
	r2, err := env.OpenReader(c.InStream2)
	if err != nil {
		return fmt.Errorf("concat: attaching reader to %q: %w", c.InStream2, err)
	}
	defer r2.Close()
	w, err := env.OpenWriter(c.OutStream)
	if err != nil {
		return fmt.Errorf("concat: attaching writer to %q: %w", c.OutStream, err)
	}
	defer w.Close()

	// Each reader resumes where its group left off as of its own attach,
	// so after a restart one input can lag the other. This rank already
	// joined and published the lagging input's steps below the other's
	// resume point: release them unread.
	if err := skipTo(env.Ctx(), r1, r2.NextStep()); err != nil {
		return fmt.Errorf("concat: resuming %q: %w", c.InStream1, err)
	}
	if err := skipTo(env.Ctx(), r2, r1.NextStep()); err != nil {
		return fmt.Errorf("concat: resuming %q: %w", c.InStream2, err)
	}

	for {
		step := r1.NextStep() // absolute: a re-attached reader resumes mid-stream
		info1, err1 := r1.BeginStep(env.Ctx())
		if errors.Is(err1, io.EOF) {
			// Drain the other stream's step if it still has one, then end.
			if _, err2 := r2.BeginStep(env.Ctx()); err2 == nil {
				r2.EndStep()
			}
			return nil
		}
		if err1 != nil {
			return fmt.Errorf("concat: step %d: %w", step, err1)
		}
		info2, err2 := r2.BeginStep(env.Ctx())
		if errors.Is(err2, io.EOF) {
			r1.EndStep()
			return nil
		}
		if err2 != nil {
			return fmt.Errorf("concat: step %d: %w", step, err2)
		}
		begin := time.Now()

		v1, ok := info1.Var(c.InArray1)
		if !ok {
			return fmt.Errorf("concat: step %d of stream %q has no array %q", step, c.InStream1, c.InArray1)
		}
		v2, ok := info2.Var(c.InArray2)
		if !ok {
			return fmt.Errorf("concat: step %d of stream %q has no array %q", step, c.InStream2, c.InArray2)
		}
		n := len(v1.Dims)
		if len(v2.Dims) != n {
			return fmt.Errorf("concat: step %d: inputs have ranks %d and %d", step, n, len(v2.Dims))
		}
		if c.Axis >= n {
			return fmt.Errorf("concat: axis %d out of range for %d-dimensional inputs", c.Axis, n)
		}
		for i := 0; i < n; i++ {
			if i != c.Axis && v1.Dims[i].Size != v2.Dims[i].Size {
				return fmt.Errorf("concat: step %d: extent mismatch in dimension %d: %d vs %d",
					step, i, v1.Dims[i].Size, v2.Dims[i].Size)
			}
		}
		in1, err := sb.ReadPartition(env.Ctx(), env, r1, info1, c.InArray1, c.Policy, c)
		if err != nil {
			return fmt.Errorf("concat: step %d: %w", step, err)
		}
		b1, box := in1.Block, in1.Box
		box2 := box.Clone()
		box2.Counts[c.Axis] = v2.Dims[c.Axis].Size
		b2raw, err := r2.ReadBox(env.Ctx(), c.InArray2, box2)
		if err != nil {
			return fmt.Errorf("concat: step %d: %w", step, err)
		}
		// Align the second block's labels with the first so Concat's
		// label check passes (first input's labels win by contract).
		dims2 := b1.Dims()
		dims2[c.Axis].Size = b2raw.Dim(c.Axis).Size
		b2, err := ndarray.FromData(b2raw.Data(), dims2...)
		if err != nil {
			return fmt.Errorf("concat: step %d: %w", step, err)
		}
		joined, err := ndarray.Concat(c.Axis, b1, b2)
		if err != nil {
			return fmt.Errorf("concat: step %d: %w", step, err)
		}
		outDims := make([]ndarray.Dim, n)
		copy(outDims, v1.Dims)
		outDims[c.Axis].Size = v1.Dims[c.Axis].Size + v2.Dims[c.Axis].Size
		outBox := box.Clone()
		outBox.Counts[c.Axis] = outDims[c.Axis].Size

		// A restart between the publish and the input releases leaves the
		// resumed writer already holding this step.
		if _, err := sb.PublishStep(env.Ctx(), w, step, c.OutArray, outDims, outBox, joined.Data(), info1.Attrs); err != nil {
			return fmt.Errorf("concat: step %d: %w", step, err)
		}
		if err := r1.EndStep(); err != nil {
			return err
		}
		if err := r2.EndStep(); err != nil {
			return err
		}
		in := int64((b1.Size() + b2.Size()) * 8)
		env.Metrics.RecordStep(step, time.Since(begin), in, int64(joined.Size()*8))
	}
}

// ReservedAxes implements sb.AxisReserver: the first input is
// partitioned along any axis but the concatenation axis.
func (c *Concat) ReservedAxes(*adios.GlobalVar, *adios.StepInfo) ([]int, error) {
	return []int{c.Axis}, nil
}

// skipTo releases r's steps below step without reading their data. An
// input that ends first is left for the step loop to see.
func skipTo(ctx context.Context, r *adios.Reader, step int) error {
	for r.NextStep() < step {
		if _, err := r.BeginStep(ctx); errors.Is(err, io.EOF) {
			return nil
		} else if err != nil {
			return err
		}
		if err := r.EndStep(); err != nil {
			return err
		}
	}
	return nil
}

func init() { Register("concat", NewConcat) }
