package sb

import (
	"context"
	"errors"
	"io"
	"sync"

	"repro/internal/adios"
	"repro/internal/pool"
)

// This file is the glue between component code and the workflow
// supervisor: every transport handle a supervised component opens is
// recorded in a HandleSet, and how those handles are settled at the end
// of a run attempt — closed, detached, or crashed — is decided by the
// supervisor, not by the component's own defer chain.
//
// The problem it solves: a component that fails mid-step runs its
// `defer w.Close()` / `defer r.Close()` on the way out. A graceful close
// is exactly wrong there — closing a reader rank stops it gating step
// retirement (buffered steps the restarted component still needs would
// retire), and closing a writer rank can end the stream, turning a
// transient failure into a permanent EOF downstream. So a HandleSet is
// "poisoned" by the first operation error: from then on the component's
// own Close calls become deferred no-ops and the supervisor settles
// every surviving handle with Finish — Detach before a retry, Crash when
// retries are exhausted, Close on success. On a clean run a reader's
// close passes straight through. A writer's close always waits for
// Finish: the last writer rank to close ends the stream, so a rank that
// finished must keep its slot open until the whole attempt succeeds —
// if a peer fails, the finished rank re-runs too, and a stream its
// peer's new attempt ended in between would refuse its re-attach.

// FinishMode selects how HandleSet.Finish settles surviving handles.
type FinishMode int

const (
	// FinishClose retires handles gracefully (successful completion).
	FinishClose FinishMode = iota
	// FinishDetach suspends handles for a supervised restart: group slots
	// free up, buffered steps stay buffered, and the next attempt's
	// handles resume at the transport's NextStep.
	FinishDetach
	// FinishCrash declares the component lost: writer handles fail their
	// streams (readers downstream get ErrWriterLost), reader handles
	// close so they stop gating retirement.
	FinishCrash
)

// Capability probes on transport handles. The flexpath handles (local
// and TCP) implement all three; a transport that implements none still
// works, falling back to Close.
type detacher interface{ Detach() error }
type crasher interface{ Crash(cause error) error }
type stepper interface{ NextStep() int }

// HandleSet tracks every managed transport handle opened by one
// component run attempt, across all of its ranks. It is safe for
// concurrent use by the rank goroutines.
type HandleSet struct {
	mu       sync.Mutex
	poisoned bool
	entries  []*managedEntry
}

// NewHandleSet returns an empty set. Assign it to Env.Handles (every
// rank's Env of one run attempt shares one set) to route that attempt's
// handle lifecycle through the supervisor.
func NewHandleSet() *HandleSet { return &HandleSet{} }

type managedEntry struct {
	env     *Env
	writer  adios.BlockWriter // exactly one of writer/reader is non-nil
	reader  adios.BlockReader
	settled bool
}

func (hs *HandleSet) poison() {
	hs.mu.Lock()
	hs.poisoned = true
	hs.mu.Unlock()
}

// Suspend defers all further component-side Close calls to the
// supervisor's Finish, exactly as an operation failure would. The
// rescale interrupt uses it: ErrRescale is a control signal, not an op
// error, so nothing poisons the set organically — but the component's
// defer chain must still not close handles the supervisor is about to
// detach (a graceful writer close would end the stream for good).
// Nil-safe.
func (hs *HandleSet) Suspend() {
	if hs == nil {
		return
	}
	hs.poison()
}

// Poisoned reports whether any managed operation has failed.
func (hs *HandleSet) Poisoned() bool {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	return hs.poisoned
}

// noteErr records an operation failure. io.EOF is the normal end of a
// stream, not a failure.
func (hs *HandleSet) noteErr(err error) {
	if err == nil || errors.Is(err, io.EOF) {
		return
	}
	hs.poison()
}

// settleInline is the component-side Close path: on a clean set the
// handle closes through immediately; on a poisoned set settlement is
// deferred to the supervisor's Finish and the close is a no-op.
func (hs *HandleSet) settleInline(e *managedEntry, close func() error) error {
	hs.mu.Lock()
	if e.settled || hs.poisoned {
		hs.mu.Unlock()
		return nil
	}
	e.settled = true
	hs.mu.Unlock()
	return close()
}

// FinishRank settles one rank's outcome the moment its Run body returns:
// a failed rank poisons the set (its handles — and its peers' — wait for
// the supervisor), a succeeded rank's readers close immediately so they
// stop gating retirement for slower peers. Its writers wait for Finish.
func (hs *HandleSet) FinishRank(env *Env, err error) {
	if err != nil {
		hs.noteErr(err)
		return
	}
	hs.mu.Lock()
	var todo []*managedEntry
	for _, e := range hs.entries {
		if e.env == env && e.reader != nil && !e.settled {
			e.settled = true
			todo = append(todo, e)
		}
	}
	hs.mu.Unlock()
	for _, e := range todo {
		e.reader.Close()
	}
}

// Finish settles every surviving handle of the attempt and resets the
// set for the next one. cause is reported to the transport on
// FinishCrash (it becomes part of downstream ErrWriterLost diagnoses).
func (hs *HandleSet) Finish(mode FinishMode, cause error) {
	hs.mu.Lock()
	// The set gives up its entries, so the unsettled ones are gathered
	// in place rather than into a new slice.
	todo := hs.entries[:0]
	for _, e := range hs.entries {
		if !e.settled {
			e.settled = true
			todo = append(todo, e)
		}
	}
	hs.entries = nil
	hs.poisoned = false
	hs.mu.Unlock()
	for _, e := range todo {
		var h any = e.reader
		if e.writer != nil {
			h = e.writer
		}
		switch mode {
		case FinishDetach:
			if d, ok := h.(detacher); ok {
				d.Detach()
				continue
			}
		case FinishCrash:
			if e.writer != nil {
				if c, ok := h.(crasher); ok {
					c.Crash(cause)
					continue
				}
			}
		}
		if e.writer != nil {
			e.writer.Close()
		} else {
			e.reader.Close()
		}
	}
}

// manageWriter wraps a transport writer handle with poison-on-error,
// per-op step deadlines, and supervised settlement.
func (hs *HandleSet) manageWriter(env *Env, bw adios.BlockWriter) adios.BlockWriter {
	e := &managedEntry{env: env, writer: bw}
	hs.mu.Lock()
	hs.entries = append(hs.entries, e)
	hs.mu.Unlock()
	return &managedWriter{hs: hs, e: e, inner: bw, env: env}
}

// manageReader is manageWriter for reader handles.
func (hs *HandleSet) manageReader(env *Env, br adios.BlockReader) adios.BlockReader {
	e := &managedEntry{env: env, reader: br}
	hs.mu.Lock()
	hs.entries = append(hs.entries, e)
	hs.mu.Unlock()
	return &managedReader{hs: hs, e: e, inner: br, env: env}
}

// opCtx bounds one blocking transport operation with the Env's step
// deadline, turning an unbounded wait (a stalled upstream, a wedged
// queue) into context.DeadlineExceeded — which the supervisor treats as
// retryable.
func opCtx(env *Env, ctx context.Context) (context.Context, context.CancelFunc) {
	if env.StepTimeout <= 0 {
		return ctx, func() {}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithTimeout(ctx, env.StepTimeout)
}

type managedWriter struct {
	hs    *HandleSet
	e     *managedEntry
	inner adios.BlockWriter
	env   *Env
}

func (m *managedWriter) PublishBlock(ctx context.Context, step int, meta, payload []byte) error {
	ctx, cancel := opCtx(m.env, ctx)
	defer cancel()
	err := m.inner.PublishBlock(ctx, step, meta, payload)
	m.hs.noteErr(err)
	return err
}

// PublishBlockRef forwards the zero-copy capability when the wrapped
// transport has it, so supervision does not forfeit pooling. On a
// transport without it the bytes are handed over via PublishBlock and
// the references dropped WITHOUT recycling: the transport may retain the
// slices past the call, so returning their storage to the pool would
// hand it to a future step while still referenced. The GC reclaims them
// instead — correct, just unpooled.
func (m *managedWriter) PublishBlockRef(ctx context.Context, step int, meta, payload *pool.Buf) error {
	ctx, cancel := opCtx(m.env, ctx)
	defer cancel()
	var err error
	if rw, ok := m.inner.(adios.RefBlockWriter); ok {
		err = rw.PublishBlockRef(ctx, step, meta, payload)
	} else {
		err = m.inner.PublishBlock(ctx, step, meta.Bytes(), payload.Bytes())
	}
	m.hs.noteErr(err)
	return err
}

// Close defers to the supervisor's Finish (see HandleSet).
func (m *managedWriter) Close() error { return nil }

type managedReader struct {
	hs    *HandleSet
	e     *managedEntry
	inner adios.BlockReader
	env   *Env
}

func (m *managedReader) StepMeta(ctx context.Context, step int) ([][]byte, error) {
	ctx, cancel := opCtx(m.env, ctx)
	defer cancel()
	metas, err := m.inner.StepMeta(ctx, step)
	m.hs.noteErr(err)
	return metas, err
}

func (m *managedReader) FetchBlock(ctx context.Context, step, writerRank int) ([]byte, error) {
	ctx, cancel := opCtx(m.env, ctx)
	defer cancel()
	payload, err := m.inner.FetchBlock(ctx, step, writerRank)
	m.hs.noteErr(err)
	return payload, err
}

func (m *managedReader) ReleaseStep(step int) error {
	err := m.inner.ReleaseStep(step)
	m.hs.noteErr(err)
	return err
}

func (m *managedReader) Close() error {
	return m.hs.settleInline(m.e, m.inner.Close)
}
