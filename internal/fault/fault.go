// Package fault injects deterministic failures into a SmartBlock stream
// transport, so the fabric's recovery machinery — supervised restarts,
// writer-liveness, backoff — can be exercised repeatably in CI instead
// of waiting for production to roll the dice.
//
// A fault.Transport wraps any sb.Transport and consults a seeded Plan on
// every operation: it can return transient errors (plain, or dressed as
// connection resets), add latency, and crash a chosen writer rank at a
// chosen step. Determinism under concurrency comes from per-handle
// random streams: each attached handle draws from its own generator,
// seeded by hashing (plan seed, handle kind, stream, rank, attach
// generation), so rank goroutines racing each other cannot perturb one
// another's draws, and a re-attached handle after a supervised restart
// sees a fresh (but still deterministic) schedule rather than replaying
// the exact failure that killed its predecessor.
package fault

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"syscall"
	"time"

	"repro/internal/adios"
	"repro/internal/pool"
	"repro/internal/sb"
)

// Op names one injectable transport operation.
type Op string

// The injectable operations.
const (
	OpAttachWriter Op = "attach-writer"
	OpAttachReader Op = "attach-reader"
	OpPublish      Op = "publish"
	OpStepMeta     Op = "step-meta"
	OpFetchBlock   Op = "fetch-block"
	OpWriterSize   Op = "writer-size"
)

// Sentinel errors for injected faults.
var (
	// ErrInjected matches (errors.Is) every transient injected failure.
	ErrInjected = errors.New("fault: injected transient failure")
	// ErrCrashed matches the terminal injected writer crash; it is NOT
	// transient — a crashed component must not be retried into a stream
	// its broker has already declared failed.
	ErrCrashed = errors.New("fault: injected writer crash")
)

// transientError is a retryable injected failure. It advertises itself
// via Transient() — the convention the workflow supervisor's Retryable
// classifier recognises — and matches ErrInjected.
type transientError struct {
	op     Op
	stream string
	rank   int
	reset  bool
}

func (e *transientError) Error() string {
	kind := "transient failure"
	if e.reset {
		kind = "connection reset"
	}
	return fmt.Sprintf("fault: injected %s: %s on stream %q rank %d", kind, e.op, e.stream, e.rank)
}

func (e *transientError) Transient() bool { return true }

func (e *transientError) Is(target error) bool { return target == ErrInjected }

// Unwrap lets reset-flavoured injections satisfy
// errors.Is(err, syscall.ECONNRESET), exercising the same classification
// path a real TCP reset takes.
func (e *transientError) Unwrap() error {
	if e.reset {
		return syscall.ECONNRESET
	}
	return nil
}

// CrashPoint kills one writer rank at one step: the first PublishBlock
// with step >= Step on the named stream by the given rank crashes the
// handle (failing the stream with ErrWriterLost for everyone else) and
// returns ErrCrashed to the component.
type CrashPoint struct {
	Stream string
	Rank   int
	Step   int
}

// Plan is a seeded fault schedule. The zero value injects nothing.
type Plan struct {
	// Seed roots every per-handle random stream. Two runs of the same
	// workflow with the same plan see identical fault schedules.
	Seed int64
	// ErrRate is the per-operation probability of a plain transient
	// error (the operation does not reach the inner transport).
	ErrRate float64
	// ResetRate is the per-operation probability of a transient error
	// that presents as a connection reset (wraps syscall.ECONNRESET).
	ResetRate float64
	// LatencyRate is the per-operation probability of added latency,
	// uniform in (0, MaxLatency].
	LatencyRate float64
	// MaxLatency bounds injected latency (default 5ms when latency is
	// enabled but no bound given).
	MaxLatency time.Duration
	// Ops restricts injection to the listed operations; nil means every
	// operation is injectable.
	Ops map[Op]bool
	// Crash, when non-nil, schedules one deterministic writer crash.
	Crash *CrashPoint
}

func (p *Plan) injects(op Op) bool {
	return p.Ops == nil || p.Ops[op]
}

// Transport wraps an inner sb.Transport with fault injection. Safe for
// concurrent use by any number of rank goroutines.
type Transport struct {
	Inner sb.Transport
	Plan  Plan

	mu  sync.Mutex
	gen map[string]int
}

// New wraps inner with the given plan.
func New(inner sb.Transport, plan Plan) *Transport {
	return &Transport{Inner: inner, Plan: plan, gen: map[string]int{}}
}

// handleRNG builds the deterministic per-handle generator: same seed,
// kind, stream, and rank always yield the same stream of draws, but each
// re-attach advances the generation so a restart explores a different
// (still reproducible) schedule.
func (t *Transport) handleRNG(kind, stream string, rank int) *rand.Rand {
	t.mu.Lock()
	key := fmt.Sprintf("%s/%s/%d", kind, stream, rank)
	g := t.gen[key]
	t.gen[key] = g + 1
	t.mu.Unlock()
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", t.Plan.Seed, key, g)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// inject performs the per-operation draws in a fixed order (latency,
// reset, error) and returns a non-nil error if a failure fires. The
// caller holds the handle's rng exclusively (one goroutine per rank).
func (t *Transport) inject(rng *rand.Rand, op Op, stream string, rank int) error {
	p := &t.Plan
	if !p.injects(op) {
		return nil
	}
	if p.LatencyRate > 0 && rng.Float64() < p.LatencyRate {
		max := p.MaxLatency
		if max <= 0 {
			max = 5 * time.Millisecond
		}
		time.Sleep(time.Duration(rng.Int63n(int64(max))) + 1)
	}
	if p.ResetRate > 0 && rng.Float64() < p.ResetRate {
		return &transientError{op: op, stream: stream, rank: rank, reset: true}
	}
	if p.ErrRate > 0 && rng.Float64() < p.ErrRate {
		return &transientError{op: op, stream: stream, rank: rank}
	}
	return nil
}

// Capability probes forwarded to inner handles.
type stepper interface{ NextStep() int }
type detacher interface{ Detach() error }
type crasher interface{ Crash(cause error) error }

// AttachWriter implements sb.Transport.
func (t *Transport) AttachWriter(stream string, rank, size, depth int) (adios.BlockWriter, error) {
	rng := t.handleRNG("w", stream, rank)
	if err := t.inject(rng, OpAttachWriter, stream, rank); err != nil {
		return nil, err
	}
	bw, err := t.Inner.AttachWriter(stream, rank, size, depth)
	if err != nil {
		return nil, err
	}
	fw := &faultWriter{t: t, inner: bw, rng: rng, stream: stream, rank: rank}
	if _, ok := bw.(adios.RefBlockWriter); ok {
		return refFaultWriter{fw}, nil
	}
	return fw, nil
}

// AttachReader implements sb.Transport.
func (t *Transport) AttachReader(stream string, rank, size int) (adios.BlockReader, error) {
	rng := t.handleRNG("r", stream, rank)
	if err := t.inject(rng, OpAttachReader, stream, rank); err != nil {
		return nil, err
	}
	br, err := t.Inner.AttachReader(stream, rank, size)
	if err != nil {
		return nil, err
	}
	return &faultReader{t: t, inner: br, rng: rng, stream: stream, rank: rank}, nil
}

// faultWriter wraps one writer handle. Each handle is owned by a single
// rank goroutine (the transport contract), so rng needs no lock.
type faultWriter struct {
	t      *Transport
	inner  adios.BlockWriter
	rng    *rand.Rand
	stream string
	rank   int
}

func (w *faultWriter) PublishBlock(ctx context.Context, step int, meta, payload []byte) error {
	if err := w.fault(step); err != nil {
		return err
	}
	return w.inner.PublishBlock(ctx, step, meta, payload)
}

// fault fires the scheduled crash or an injected publish error, if
// either is due for this publish of step.
func (w *faultWriter) fault(step int) error {
	if cp := w.t.Plan.Crash; cp != nil && cp.Stream == w.stream && cp.Rank == w.rank && step >= cp.Step {
		// The scheduled kill: fail the stream at the broker (so peers and
		// readers see ErrWriterLost) and report a terminal error upward.
		if c, ok := w.inner.(crasher); ok {
			c.Crash(ErrCrashed)
		} else {
			w.inner.Close()
		}
		return fmt.Errorf("%w: stream %q writer rank %d at step %d", ErrCrashed, w.stream, w.rank, step)
	}
	return w.t.inject(w.rng, OpPublish, w.stream, w.rank)
}

// refFaultWriter is a faultWriter over a handle with the zero-copy
// publish capability (adios.RefBlockWriter), which it forwards, so a
// faulted run publishes through the same pooled path as production.
type refFaultWriter struct{ *faultWriter }

// PublishBlockRef consumes both references like the inner handle's: a
// publish that a fault stops releases them here.
func (w refFaultWriter) PublishBlockRef(ctx context.Context, step int, meta, payload *pool.Buf) error {
	if err := w.fault(step); err != nil {
		meta.Release()
		payload.Release()
		return err
	}
	return w.inner.(adios.RefBlockWriter).PublishBlockRef(ctx, step, meta, payload)
}

func (w *faultWriter) Close() error { return w.inner.Close() }

func (w *faultWriter) NextStep() int {
	if s, ok := w.inner.(stepper); ok {
		return s.NextStep()
	}
	return 0
}

func (w *faultWriter) Detach() error {
	if d, ok := w.inner.(detacher); ok {
		return d.Detach()
	}
	return w.inner.Close()
}

func (w *faultWriter) Crash(cause error) error {
	if c, ok := w.inner.(crasher); ok {
		return c.Crash(cause)
	}
	return w.inner.Close()
}

// faultReader wraps one reader handle.
type faultReader struct {
	t      *Transport
	inner  adios.BlockReader
	rng    *rand.Rand
	stream string
	rank   int
}

func (r *faultReader) StepMeta(ctx context.Context, step int) ([][]byte, error) {
	if err := r.t.inject(r.rng, OpStepMeta, r.stream, r.rank); err != nil {
		return nil, err
	}
	return r.inner.StepMeta(ctx, step)
}

func (r *faultReader) FetchBlock(ctx context.Context, step, writerRank int) ([]byte, error) {
	if err := r.t.inject(r.rng, OpFetchBlock, r.stream, r.rank); err != nil {
		return nil, err
	}
	return r.inner.FetchBlock(ctx, step, writerRank)
}

func (r *faultReader) ReleaseStep(step int) error {
	// Releases are never failed: a lost release would be indistinguishable
	// from a slow reader and is not an interesting failure mode — the
	// recovery paths worth testing are all on the blocking operations.
	return r.inner.ReleaseStep(step)
}

func (r *faultReader) Close() error { return r.inner.Close() }

func (r *faultReader) NextStep() int {
	if s, ok := r.inner.(stepper); ok {
		return s.NextStep()
	}
	return 0
}

func (r *faultReader) Detach() error {
	if d, ok := r.inner.(detacher); ok {
		return d.Detach()
	}
	return r.inner.Close()
}
