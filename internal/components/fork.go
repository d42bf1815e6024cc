package components

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/adios"
	"repro/internal/sb"
)

const forkUsage = "input-stream-name input-array-name output-stream-1 [output-stream-2] ..."

// Fork republishes one input stream on several output streams, keeping
// the array name, global layout and attributes intact. It is the "Fork
// component that would permit the creation of much richer workflows
// described by directed acyclic graphs" from the paper's future work
// (§VI), built on the equivalent of ADIOS's multiple write groups.
type Fork struct {
	InStream, InArray string
	OutStreams        []string
}

// NewFork parses: input-stream input-array out-stream....
func NewFork(args []string) (sb.Component, error) {
	if len(args) < 3 {
		return nil, &sb.UsageError{Component: "fork", Usage: forkUsage,
			Problem: fmt.Sprintf("need at least 3 arguments, got %d", len(args))}
	}
	seen := map[string]bool{args[0]: true}
	for _, out := range args[2:] {
		if seen[out] {
			return nil, &sb.UsageError{Component: "fork", Usage: forkUsage,
				Problem: fmt.Sprintf("stream %q repeated (outputs must be distinct from each other and the input)", out)}
		}
		seen[out] = true
	}
	return &Fork{InStream: args[0], InArray: args[1], OutStreams: append([]string(nil), args[2:]...)}, nil
}

// Name implements sb.Component.
func (f *Fork) Name() string { return "fork" }

// Run implements sb.Component.
func (f *Fork) Run(env *sb.Env) error {
	r, err := env.OpenReader(f.InStream)
	if err != nil {
		return fmt.Errorf("fork: attaching reader to %q: %w", f.InStream, err)
	}
	defer r.Close()
	writers := make([]*adios.Writer, len(f.OutStreams))
	for i, name := range f.OutStreams {
		w, err := env.OpenWriter(name)
		if err != nil {
			return fmt.Errorf("fork: attaching writer to %q: %w", name, err)
		}
		defer w.Close()
		writers[i] = w
	}
	for {
		step := r.NextStep() // absolute: a re-attached reader resumes mid-stream
		info, err := r.BeginStep(env.Ctx())
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("fork: step %d: %w", step, err)
		}
		begin := time.Now() // active time: excludes waiting for the producer
		in, err := sb.ReadPartition(env.Ctx(), env, r, info, f.InArray, sb.PartitionFirstFree, nil)
		if err != nil {
			return fmt.Errorf("fork: step %d: %w", step, err)
		}
		// A restart between one output's publish and the input release
		// finds that output's resumed writer already holding the step.
		for wi, w := range writers {
			if _, err := sb.PublishStep(env.Ctx(), w, step, f.InArray, in.Var.Dims, in.Box, in.Block.Data(), info.Attrs); err != nil {
				return fmt.Errorf("fork: step %d out %d: %w", step, wi, err)
			}
		}
		if err := r.EndStep(); err != nil {
			return fmt.Errorf("fork: step %d: %w", step, err)
		}
		n := int64(in.Block.Size() * 8)
		env.Metrics.RecordStep(step, time.Since(begin), n, n*int64(len(writers)))
	}
}

func init() { Register("fork", NewFork) }
