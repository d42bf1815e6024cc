package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/adios"
	"repro/internal/flexpath"
	"repro/internal/sb"
)

// smallFeed is a feed workload small enough for a unit test.
func smallFeed(t *testing.T, shm bool) *workload {
	t.Helper()
	w := &workload{name: "feed-chain", steps: 8, particles: 3000, shm: shm}
	w.inputs = generateParticles(7, w.particles, w.steps)
	w.ref = feedReference(w.inputs)
	return w
}

// shmDir returns a short relative directory for the shm socket, which
// must fit the Unix socket path limit.
func shmDir(t *testing.T) string {
	t.Helper()
	dir, err := os.MkdirTemp(".", "t")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return filepath.Join(dir, "r")
}

func runOnce(t *testing.T, w *workload, traced bool, dir string) *phase {
	t.Helper()
	p := newPhase()
	p.addRep(runRep(w, traced, dir))
	return p
}

func TestFeedWorkloadsMatchReference(t *testing.T) {
	for _, shm := range []bool{false, true} {
		w := smallFeed(t, shm)
		p := runOnce(t, w, false, shmDir(t))
		if p.failed != 0 || p.attempted != w.steps {
			t.Fatalf("shm=%v: failed %d of %d: %v", shm, p.failed, p.attempted, p.problems)
		}
	}
}

func TestGateFiresOnPerturbedInput(t *testing.T) {
	for _, shm := range []bool{false, true} {
		w := smallFeed(t, shm)
		// The reference was computed from the original inputs; the
		// workflow now sees one velocity changed.
		w.inputs[3][5*100+2] += 1
		p := runOnce(t, w, false, shmDir(t))
		if p.failed == 0 {
			t.Fatalf("shm=%v: perturbed input passed the gate", shm)
		}
	}
}

func TestGromacsMatchesReference(t *testing.T) {
	w := &workload{name: "sim-gromacs", steps: 6, atoms: 800, subcycles: 1, seed: 3}
	ref, err := gromacsReference(w)
	if err != nil {
		t.Fatal(err)
	}
	w.ref = ref
	p := runOnce(t, w, true, "")
	if p.failed != 0 {
		t.Fatalf("failed %d of %d: %v", p.failed, p.attempted, p.problems)
	}
	w.ref[2].Counts[0]++
	if p := runOnce(t, w, false, ""); p.failed == 0 {
		t.Fatal("altered reference passed the gate")
	}
}

// TestTracedRunKeepsZeroCopy checks that timing every handle leaves the
// program on its zero-copy publish path: the same pool reuse and the
// same bytes on the wire as the untraced run. Without the forwarded
// PublishBlockRef the supervisor's handle wrapper publishes copies and
// drops the pooled buffers unrecycled, and the traced reuse ratio falls
// to 0. The ratio also depends on when the garbage collector empties
// sync.Pool (and the race detector drops pooled items on purpose), so
// it is compared with a tolerance.
func TestTracedRunKeepsZeroCopy(t *testing.T) {
	w := smallFeed(t, false)
	plain := measure(w, false, 0, "")
	traced := measure(w, true, 0, "")
	if plain.failed != 0 || traced.failed != 0 {
		t.Fatalf("failures: %v %v", plain.problems, traced.problems)
	}
	if plain.steps != traced.steps || plain.poolGets != traced.poolGets {
		t.Fatalf("steps %d vs %d, pool gets %d vs %d", plain.steps, traced.steps, plain.poolGets, traced.poolGets)
	}
	ratio := func(p *phase) float64 { return float64(p.poolGets-p.poolNews) / float64(p.poolGets) }
	t.Logf("pool.reuse_ratio: untraced %.4f, traced %.4f", ratio(plain), ratio(traced))
	if d := ratio(plain) - ratio(traced); d > 0.15 || d < -0.15 {
		t.Errorf("pool.reuse_ratio: untraced %.3f, traced %.3f", ratio(plain), ratio(traced))
	}
	if plain.brokerBytes != traced.brokerBytes {
		t.Errorf("broker bytes: untraced %d, traced %d", plain.brokerBytes, traced.brokerBytes)
	}
}

func TestDecoratorForwardsCapabilities(t *testing.T) {
	f := newTimedFabric(sb.Fabric{T: flexpath.NewInProc()}, false)
	w, err := f.AttachWriter("s", 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.(adios.RefBlockWriter); !ok {
		t.Error("writer lost the zero-copy capability")
	}
	for name, ok := range map[string]bool{
		"NextStep": is[stepper](w), "Detach": is[detacher](w), "Crash": is[crasher](w),
	} {
		if !ok {
			t.Errorf("writer lost %s", name)
		}
	}
	r, err := f.AttachReader("s", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !is[stepper](r) || !is[detacher](r) {
		t.Error("reader lost NextStep or Detach")
	}
}

func is[T any](v any) bool {
	_, ok := v.(T)
	return ok
}
