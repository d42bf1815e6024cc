package lammps

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
	c, err := NewFromArgs([]string{"out.fp", "atoms", "500", "10", "7"})
	if err != nil {
		t.Fatal(err)
	}
	s := c.(*Sim)
	if s.Particles != 500 || s.Steps != 10 || s.Seed != 7 {
		t.Fatalf("parsed %+v", s)
	}
	for _, bad := range [][]string{
		{"out.fp", "atoms"},
		{"out.fp", "atoms", "0", "10"},
		{"out.fp", "atoms", "500", "-1"},
		{"out.fp", "atoms", "500", "x"},
		{"out.fp", "atoms", "500", "10", "seed"},
	} {
		if _, err := NewFromArgs(bad); err == nil {
			t.Errorf("args %v accepted", bad)
		}
	}
}

// drain collects all steps of the sim output on one reader rank.
func drain(t *testing.T, broker *flexpath.Broker, stream, array string) []*ndarray.Array {
	t.Helper()
	var out []*ndarray.Array
	err := mpi.Run(1, func(comm *mpi.Comm) error {
		env := &sb.Env{Comm: comm, Transport: sb.Fabric{T: flexpath.InProc{B: broker}}}
		r, err := env.OpenReader(stream)
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
			if hdr := info.ListAttr(components.HeaderAttr("props")); len(hdr) != 5 || hdr[2] != "vx" {
				return fmt.Errorf("header = %v", hdr)
			}
			arr, err := r.ReadAll(env.Ctx(), array)
			if err != nil {
				return err
			}
			out = append(out, arr)
			if err := r.EndStep(); err != nil {
				return err
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSimOutputsContract(t *testing.T) {
	const particles, steps = 120, 4
	broker := flexpath.NewBroker()
	done := make(chan error, 1)
	go func() {
		done <- mpi.Run(3, func(comm *mpi.Comm) error {
			sim := New("lmp.fp", "atoms", particles, steps, 1)
			return sim.Run(&sb.Env{Comm: comm, Transport: sb.Fabric{T: flexpath.InProc{B: broker}}})
		})
	}()
	arrays := drain(t, broker, "lmp.fp", "atoms")
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(arrays) != steps {
		t.Fatalf("got %d steps, want %d", len(arrays), steps)
	}
	for s, a := range arrays {
		if a.Dim(0).Name != "particles" || a.Dim(0).Size != particles ||
			a.Dim(1).Name != "props" || a.Dim(1).Size != 5 {
			t.Fatalf("step %d dims = %v", s, a.Dims())
		}
		// IDs are 1..N in order regardless of rank decomposition; types
		// are 1 (bulk) or 2 (crack edge).
		for p := 0; p < particles; p++ {
			if a.At(p, 0) != float64(p+1) {
				t.Fatalf("step %d particle %d has ID %v", s, p, a.At(p, 0))
			}
			typ := a.At(p, 1)
			if typ != 1 && typ != 2 {
				t.Fatalf("step %d particle %d has type %v", s, p, typ)
			}
			for c := 2; c < 5; c++ {
				if math.IsNaN(a.At(p, c)) || math.IsInf(a.At(p, c), 0) {
					t.Fatalf("step %d particle %d velocity not finite", s, p)
				}
			}
		}
	}
	// The crack releases particles over time: the last step must have
	// more type-2 particles than the first, and larger peak speed.
	count2 := func(a *ndarray.Array) int {
		n := 0
		for p := 0; p < particles; p++ {
			if a.At(p, 1) == 2 {
				n++
			}
		}
		return n
	}
	if count2(arrays[steps-1]) <= count2(arrays[0]) {
		t.Fatalf("crack did not propagate: %d → %d broken particles",
			count2(arrays[0]), count2(arrays[steps-1]))
	}
	maxSpeed := func(a *ndarray.Array) float64 {
		best := 0.0
		for p := 0; p < particles; p++ {
			vx, vy, vz := a.At(p, 2), a.At(p, 3), a.At(p, 4)
			v := math.Sqrt(vx*vx + vy*vy + vz*vz)
			if v > best {
				best = v
			}
		}
		return best
	}
	if maxSpeed(arrays[steps-1]) <= maxSpeed(arrays[0]) {
		t.Fatal("crack impulses did not raise the peak speed")
	}
}

func TestSimNoOutputMode(t *testing.T) {
	// Stream "-" is the Table II "LMP only" configuration: the simulation
	// must run to completion without any transport interaction.
	err := mpi.Run(2, func(comm *mpi.Comm) error {
		sim := New("-", "atoms", 50, 3, 1)
		return sim.Run(&sb.Env{Comm: comm, Transport: nil})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSimDecompositionInvariance(t *testing.T) {
	// The particle IDs and initial lattice are functions of the global
	// index, so the global ID column must not depend on the rank count.
	read := func(procs int) *ndarray.Array {
		broker := flexpath.NewBroker()
		done := make(chan error, 1)
		go func() {
			done <- mpi.Run(procs, func(comm *mpi.Comm) error {
				sim := New("x.fp", "atoms", 60, 1, 5)
				return sim.Run(&sb.Env{Comm: comm, Transport: sb.Fabric{T: flexpath.InProc{B: broker}}})
			})
		}()
		arrays := drain(t, broker, "x.fp", "atoms")
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		return arrays[0]
	}
	a1, a3 := read(1), read(3)
	for p := 0; p < 60; p++ {
		if a1.At(p, 0) != a3.At(p, 0) {
			t.Fatalf("ID column depends on decomposition at particle %d", p)
		}
	}
}
