package gromacs

import (
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	"repro/internal/components"
	"repro/internal/flexpath"
	"repro/internal/mpi"
	"repro/internal/ndarray"
	"repro/internal/sb"
)

func TestNewFromArgs(t *testing.T) {
	c, err := NewFromArgs([]string{"g.fp", "pos", "1000", "8", "11"})
	if err != nil {
		t.Fatal(err)
	}
	s := c.(*Sim)
	if s.Atoms != 1000 || s.Steps != 8 || s.Seed != 11 {
		t.Fatalf("parsed %+v", s)
	}
	for _, bad := range [][]string{
		{"g.fp", "pos"},
		{"g.fp", "pos", "0", "8"},
		{"g.fp", "pos", "100", "0"},
		{"g.fp", "pos", "100", "8", "zz"},
	} {
		if _, err := NewFromArgs(bad); err == nil {
			t.Errorf("args %v accepted", bad)
		}
	}
}

func TestSimOutputsContractAndSpreads(t *testing.T) {
	const atoms, steps = 200, 6
	broker := flexpath.NewBroker()
	done := make(chan error, 1)
	go func() {
		done <- mpi.Run(2, func(comm *mpi.Comm) error {
			sim := New("g.fp", "pos", atoms, steps, 1)
			return sim.Run(&sb.Env{Comm: comm, Transport: sb.Fabric{T: flexpath.InProc{B: broker}}})
		})
	}()
	var spreads []float64
	err := mpi.Run(1, func(comm *mpi.Comm) error {
		env := &sb.Env{Comm: comm, Transport: sb.Fabric{T: flexpath.InProc{B: broker}}}
		r, err := env.OpenReader("g.fp")
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
			if hdr := info.ListAttr(components.HeaderAttr("coords")); len(hdr) != 3 || hdr[0] != "x" {
				return fmt.Errorf("header = %v", hdr)
			}
			arr, err := r.ReadAll(env.Ctx(), "pos")
			if err != nil {
				return err
			}
			if arr.Dim(0).Size != atoms || arr.Dim(1).Size != 3 {
				return fmt.Errorf("dims = %v", arr.Dims())
			}
			spreads = append(spreads, meanRadius(arr))
			if err := r.EndStep(); err != nil {
				return err
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(spreads) != steps {
		t.Fatalf("got %d steps, want %d", len(spreads), steps)
	}
	// Diffusion: the ensemble's mean radius must grow monotonically in
	// aggregate (first to last, with room for per-step noise).
	if spreads[steps-1] <= spreads[0] {
		t.Fatalf("atom cloud did not spread: %v", spreads)
	}
}

func meanRadius(a *ndarray.Array) float64 {
	n := a.Dim(0).Size
	sum := 0.0
	for p := 0; p < n; p++ {
		x, y, z := a.At(p, 0), a.At(p, 1), a.At(p, 2)
		sum += math.Sqrt(x*x + y*y + z*z)
	}
	return sum / float64(n)
}

func TestSimNoOutputMode(t *testing.T) {
	err := mpi.Run(3, func(comm *mpi.Comm) error {
		sim := New("-", "pos", 90, 2, 1)
		return sim.Run(&sb.Env{Comm: comm, Transport: nil})
	})
	if err != nil {
		t.Fatal(err)
	}
}
