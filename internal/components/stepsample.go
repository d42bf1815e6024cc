package components

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/sb"
)

const stepSampleUsage = "input-stream-name input-array-name stride output-stream-name output-array-name"

// StepSample is temporal decimation: it republishes every stride-th
// *timestep* of its input, dropping the rest. Where Sample thins the
// units dimension within a step, StepSample thins the output cadence —
// the standard lever when a simulation's I/O interval is finer than an
// expensive downstream analysis can sustain. Output timesteps are
// renumbered densely (input steps 0, k, 2k, … become output steps
// 0, 1, 2, …), as required by the transport's sequential-step contract.
type StepSample struct {
	InStream, InArray   string
	OutStream, OutArray string
	Stride              int
	Policy              sb.PartitionPolicy
}

// NewStepSample parses: input-stream input-array stride output-stream
// output-array.
func NewStepSample(args []string) (sb.Component, error) {
	if len(args) != 5 {
		return nil, &sb.UsageError{Component: "step-sample", Usage: stepSampleUsage,
			Problem: fmt.Sprintf("need exactly 5 arguments, got %d", len(args))}
	}
	stride, err := strconv.Atoi(args[2])
	if err != nil || stride <= 0 {
		return nil, &sb.UsageError{Component: "step-sample", Usage: stepSampleUsage,
			Problem: fmt.Sprintf("stride %q is not a positive integer", args[2])}
	}
	return &StepSample{
		InStream: args[0], InArray: args[1],
		Stride:    stride,
		OutStream: args[3], OutArray: args[4],
	}, nil
}

// Name implements sb.Component.
func (s *StepSample) Name() string { return "step-sample" }

// Run implements sb.Component. StepSample cannot use RunMap (it skips
// publishing for dropped steps), so it carries its own loop: kept steps
// are read, re-partitioned and republished; dropped steps are released
// without fetching their payload, which is the point — the transport
// retires them with no data movement beyond metadata.
func (s *StepSample) Run(env *sb.Env) error {
	r, err := env.OpenReader(s.InStream)
	if err != nil {
		return fmt.Errorf("step-sample: attaching reader to %q: %w", s.InStream, err)
	}
	defer r.Close()
	w, err := env.OpenWriter(s.OutStream)
	if err != nil {
		return fmt.Errorf("step-sample: attaching writer to %q: %w", s.OutStream, err)
	}
	defer w.Close()

	for {
		step := r.NextStep() // absolute: a re-attached reader resumes mid-stream
		info, err := r.BeginStep(env.Ctx())
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("step-sample: step %d: %w", step, err)
		}
		if step%s.Stride != 0 || w.Steps() > step/s.Stride {
			// Dropped step, or a kept one the resumed writer already
			// published: release without reading any block data.
			if err := r.EndStep(); err != nil {
				return fmt.Errorf("step-sample: step %d: %w", step, err)
			}
			continue
		}
		begin := time.Now()
		in, err := sb.ReadPartition(env.Ctx(), env, r, info, s.InArray, s.Policy, nil)
		if err != nil {
			return fmt.Errorf("step-sample: step %d: %w", step, err)
		}
		if _, err := sb.PublishStep(env.Ctx(), w, step/s.Stride, s.OutArray, in.Var.Dims, in.Box, in.Block.Data(), info.Attrs); err != nil {
			return fmt.Errorf("step-sample: step %d: %w", step, err)
		}
		if err := r.EndStep(); err != nil {
			return fmt.Errorf("step-sample: step %d: %w", step, err)
		}
		n := int64(in.Block.Size() * 8)
		env.Metrics.RecordStep(step, time.Since(begin), n, n)
	}
}

func init() { Register("step-sample", NewStepSample) }
