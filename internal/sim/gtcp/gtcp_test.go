package gtcp

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
	c, err := NewFromArgs([]string{"g.fp", "grid", "16", "64", "5", "3"})
	if err != nil {
		t.Fatal(err)
	}
	s := c.(*Sim)
	if s.Slices != 16 || s.Points != 64 || s.Steps != 5 || s.Seed != 3 {
		t.Fatalf("parsed %+v", s)
	}
	for _, bad := range [][]string{
		{"g.fp", "grid", "16", "64"},
		{"g.fp", "grid", "0", "64", "5"},
		{"g.fp", "grid", "16", "-2", "5"},
		{"g.fp", "grid", "16", "64", "none"},
		{"g.fp", "grid", "16", "64", "5", "s"},
	} {
		if _, err := NewFromArgs(bad); err == nil {
			t.Errorf("args %v accepted", bad)
		}
	}
}

func TestSimOutputsContract(t *testing.T) {
	const slices, points, steps = 6, 20, 3
	broker := flexpath.NewBroker()
	done := make(chan error, 1)
	go func() {
		done <- mpi.Run(2, func(comm *mpi.Comm) error {
			sim := New("g.fp", "grid", slices, points, steps, 1)
			return sim.Run(&sb.Env{Comm: comm, Transport: sb.Fabric{T: flexpath.InProc{B: broker}}})
		})
	}()
	var arrays []*ndarray.Array
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
			hdr := info.ListAttr(components.HeaderAttr("quantities"))
			if len(hdr) != 7 || hdr[4] != "pressure_perp" {
				return fmt.Errorf("header = %v", hdr)
			}
			arr, err := r.ReadAll(env.Ctx(), "grid")
			if err != nil {
				return err
			}
			arrays = append(arrays, arr)
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
	if len(arrays) != steps {
		t.Fatalf("got %d steps, want %d", len(arrays), steps)
	}
	iPerp := 4
	for s, a := range arrays {
		if a.NDim() != 3 || a.Dim(0).Size != slices || a.Dim(1).Size != points || a.Dim(2).Size != 7 {
			t.Fatalf("step %d dims = %v", s, a.Dims())
		}
		if a.Dim(0).Name != "slices" || a.Dim(2).Name != "quantities" {
			t.Fatalf("step %d labels = %v", s, a.Labels())
		}
		for sl := 0; sl < slices; sl++ {
			for p := 0; p < points; p++ {
				perp := a.At(sl, p, iPerp)
				if math.IsNaN(perp) || perp < 0 {
					t.Fatalf("step %d pressure_perp(%d,%d) = %v", s, sl, p, perp)
				}
			}
		}
	}
	// Heating deposits energy: mean perpendicular pressure must rise.
	mean := func(a *ndarray.Array) float64 {
		sum := 0.0
		for sl := 0; sl < slices; sl++ {
			for p := 0; p < points; p++ {
				sum += a.At(sl, p, iPerp)
			}
		}
		return sum / float64(slices*points)
	}
	if mean(arrays[steps-1]) <= mean(arrays[0]) {
		t.Fatalf("heating had no effect: %v → %v", mean(arrays[0]), mean(arrays[steps-1]))
	}
}

func TestQuantitiesMatchFieldIndices(t *testing.T) {
	// The exported header order must agree with the internal indices
	// (pressure_perp is what the Fig. 6 workflow selects by name).
	want := map[int]string{
		qDensity:   "density",
		qTempPar:   "temperature_par",
		qTempPerp:  "temperature_perp",
		qPressPar:  "pressure_par",
		qPressPerp: "pressure_perp",
		qFlux:      "energy_flux",
		qPotential: "potential",
	}
	for idx, name := range want {
		if Quantities[idx] != name {
			t.Fatalf("Quantities[%d] = %q, want %q", idx, Quantities[idx], name)
		}
	}
}

func TestSimNoOutputMode(t *testing.T) {
	err := mpi.Run(2, func(comm *mpi.Comm) error {
		sim := New("-", "grid", 4, 8, 2, 1)
		return sim.Run(&sb.Env{Comm: comm, Transport: nil})
	})
	if err != nil {
		t.Fatal(err)
	}
}
