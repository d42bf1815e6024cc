package workflow

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/flexpath"
	"repro/internal/ndarray"
	"repro/internal/sb"
	"repro/internal/streamlog"
)

// gatedProducer is a chaosProducer that parks before publishing gateStep
// until the gate channel closes — pinning the workflow mid-flight so the
// test can kill the broker at a known point instead of racing the
// pipeline to completion. Data stays byte-identical to chaosProducer's.
type gatedProducer struct {
	chaosProducer
	gateStep int
	gate     chan struct{}
}

func (p *gatedProducer) Run(env *sb.Env) error {
	w, err := env.OpenWriter("chaos0.fp")
	if err != nil {
		return err
	}
	defer w.Close()
	rank, size := env.Comm.Rank(), env.Comm.Size()
	for s := w.Steps(); s < p.steps; s++ {
		if s >= p.gateStep {
			select {
			case <-p.gate:
			case <-env.Ctx().Done():
				return env.Ctx().Err()
			}
		}
		g := p.global(s)
		box := ndarray.PartitionAlong(g.Shape(), 0, size, rank)
		block, err := g.CopyBox(box)
		if err != nil {
			return err
		}
		if err := w.BeginStep(); err != nil {
			return err
		}
		if err := w.Write("data", g.Dims(), box, block.Data()); err != nil {
			return err
		}
		if err := w.EndStep(env.Ctx()); err != nil {
			return err
		}
	}
	return nil
}

// TestChaosBrokerCrashRecovery is the durable log's end-to-end contract:
// a TCP broker is killed outright mid-workflow — listener severed, log
// store dropped — and a brand-new broker process recovers the stream
// state from the log directory and takes over the same address. The
// supervised stages ride out the outage as retryable ErrBrokerClosed
// failures, re-attach, resume exactly where the durable state says they
// were, and the finished workflow's results are identical to a fault-free
// serial evaluation.
func TestChaosBrokerCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	prod := &gatedProducer{
		chaosProducer: chaosProducer{rows: 24, cols: 3, steps: 8, seed: 20260808},
		gateStep:      3,
		gate:          make(chan struct{}),
	}
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(prod.gate) }) }
	defer openGate()

	// chaosSpec wires a plain chaosProducer; swap in the gated one.
	spec, st, ref := chaosSpec(t, &prod.chaosProducer)
	spec.Stages[0].Instance = prod

	store1, err := streamlog.OpenStore(dir, streamlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b1 := flexpath.NewBroker()
	b1.AttachLog(store1)
	srv1, err := flexpath.NewServer(b1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv1.Addr()

	client := flexpath.Dial(addr)
	defer client.Close()
	// The outage window spans the kill and the successor's bind; give
	// attaches enough retries to bridge it.
	client.Backoff = flexpath.Backoff{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond, Attempts: 40}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	type runOut struct {
		res *Result
		err error
	}
	done := make(chan runOut, 1)
	go func() {
		res, err := Run(ctx, sb.Fabric{T: flexpath.Remote{C: client}}, spec, Options{
			Restart: RestartPolicy{MaxRestarts: 50, Backoff: time.Millisecond, StepTimeout: 10 * time.Second},
		})
		done <- runOut{res, err}
	}()

	// Wait until the pre-gate steps are durably journaled, then kill the
	// broker: sever the listener (in-flight ops must fail retryably) and
	// release the log directory.
	lg, err := store1.Log("chaos0.fp")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for lg.NextStep() < prod.gateStep {
		if time.Now().After(deadline) {
			t.Fatalf("pre-gate steps never journaled (at %d)", lg.NextStep())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	// A "new process": fresh store, fresh broker, recover from the same
	// directory, bind the exact address the components keep dialing.
	store2, err := streamlog.OpenStore(dir, streamlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	b2 := flexpath.NewBroker()
	b2.AttachLog(store2)
	recovered, err := b2.Recover()
	if err != nil {
		t.Fatalf("recovering from %s: %v", dir, err)
	}
	if recovered < 1 {
		t.Fatalf("recovered %d streams, want at least chaos0.fp", recovered)
	}
	srv2, err := flexpath.NewServer(b2, addr)
	if err != nil {
		t.Fatalf("successor broker could not take over %s: %v", addr, err)
	}
	defer srv2.Close()
	openGate()

	out := <-done
	if out.err != nil {
		t.Logf("report:\n%s", Report(out.res))
		t.Fatalf("workflow did not survive the broker crash: %v", out.err)
	}
	assertChaosResults(t, st, prod.steps, ref)
	total := 0
	for _, sr := range out.res.Stages {
		total += sr.Restarts
	}
	if total == 0 {
		t.Fatal("no stage restarted — the kill window exercised nothing")
	}
	t.Logf("recovered %d stream(s), workflow survived via %d supervised restarts", recovered, total)
}
