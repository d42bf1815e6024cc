package components

import (
	"fmt"
	"math"
	"os"
	"sync"

	"repro/internal/adios"
	"repro/internal/mpi"
	"repro/internal/sb"
)

const statsUsage = "input-stream-name input-array-name [output-path]"

// StepStats is one timestep's summary statistics over every element of
// the input array.
type StepStats struct {
	Step  int
	Count int64
	Min   float64
	Max   float64
	Mean  float64
	Std   float64
	Sum   float64
}

// Stats is a generic endpoint component computing per-timestep summary
// statistics (count, min, max, mean, standard deviation) of an array of
// any dimensionality — part of "expanding the generic components library
// to include a variety of other analytical operations" (§VI). Like
// Histogram, it is usually a workflow endpoint: the result is tiny, so
// rank 0 writes it.
type Stats struct {
	InStream, InArray string
	OutPath           string

	mu      sync.Mutex
	results []StepStats
}

// NewStats parses: input-stream input-array [output-path].
func NewStats(args []string) (sb.Component, error) {
	if len(args) != 2 && len(args) != 3 {
		return nil, &sb.UsageError{Component: "stats", Usage: statsUsage,
			Problem: fmt.Sprintf("need 2 or 3 arguments, got %d", len(args))}
	}
	s := &Stats{InStream: args[0], InArray: args[1]}
	if len(args) == 3 {
		s.OutPath = args[2]
	}
	return s, nil
}

// Name implements sb.Component.
func (s *Stats) Name() string { return "stats" }

// Results returns the per-timestep statistics accumulated by rank 0.
func (s *Stats) Results() []StepStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]StepStats, len(s.results))
	copy(out, s.results)
	return out
}

// ReservedAxes implements sb.ReduceKernel: any axis may be partitioned.
func (s *Stats) ReservedAxes(v *adios.GlobalVar, info *adios.StepInfo) ([]int, error) {
	return nil, nil
}

// Reduce implements sb.ReduceKernel.
func (s *Stats) Reduce(in *StepIn) (StepStats, error) {
	return ComputeStats(in.Env.Comm, in.Block.Data())
}

// Run implements sb.Component.
func (s *Stats) Run(env *sb.Env) error {
	var out *os.File
	if s.OutPath != "" && env.Comm.Rank() == 0 {
		f, err := os.Create(s.OutPath)
		if err != nil {
			return fmt.Errorf("stats: %w", err)
		}
		defer f.Close()
		out = f
	}
	return sb.RunReduce(env, sb.ReduceConfig[StepStats]{
		Name:     "stats",
		InStream: s.InStream, InArray: s.InArray,
		OutBytes: 48,
		OnResult: func(step int, result StepStats) error {
			result.Step = step
			s.mu.Lock()
			// A supervised restart can re-deliver a step the previous
			// incarnation already recorded; results are keyed by step.
			if n := len(s.results); n > 0 && s.results[n-1].Step >= step {
				s.mu.Unlock()
				return nil
			}
			s.results = append(s.results, result)
			s.mu.Unlock()
			if out != nil {
				_, err := fmt.Fprintf(out, "step %d  n=%d  min=%g  max=%g  mean=%g  std=%g\n",
					result.Step, result.Count, result.Min, result.Max, result.Mean, result.Std)
				return err
			}
			return nil
		},
	}, s)
}

// ComputeStats merges per-rank moments into global summary statistics:
// one Allreduce over (count, sum, sum-of-squares, min, max). Every rank
// returns the identical result.
func ComputeStats(comm *mpi.Comm, local []float64) (StepStats, error) {
	type moments struct {
		Count    float64
		Sum      float64
		SumSq    float64
		Min, Max float64
	}
	m := moments{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, v := range local {
		m.Count++
		m.Sum += v
		m.SumSq += v * v
		if v < m.Min {
			m.Min = v
		}
		if v > m.Max {
			m.Max = v
		}
	}
	merged, err := mpi.Allreduce(comm, m, func(a, b moments) moments {
		return moments{
			Count: a.Count + b.Count,
			Sum:   a.Sum + b.Sum,
			SumSq: a.SumSq + b.SumSq,
			Min:   math.Min(a.Min, b.Min),
			Max:   math.Max(a.Max, b.Max),
		}
	})
	if err != nil {
		return StepStats{}, err
	}
	out := StepStats{Count: int64(merged.Count), Sum: merged.Sum}
	if merged.Count > 0 {
		out.Min, out.Max = merged.Min, merged.Max
		out.Mean = merged.Sum / merged.Count
		variance := merged.SumSq/merged.Count - out.Mean*out.Mean
		if variance > 0 {
			out.Std = math.Sqrt(variance)
		}
	}
	return out, nil
}

func init() { Register("stats", NewStats) }
