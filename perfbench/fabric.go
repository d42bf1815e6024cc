package main

import (
	"context"
	"sync"
	"time"

	"repro/internal/adios"
	"repro/internal/pool"
	"repro/internal/sb"
)

// epoch anchors every timestamp the benchmark records; now() is
// monotonic nanoseconds since process start.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// timedFabric is an sb.Transport decorator: it times every attach and,
// for the streams it is told to wrap, returns handles that time every
// publish, step wait, fetch and release. It only calls public entry
// points of the handles it wraps and forwards every capability the
// program probes for (zero-copy publish, NextStep, Detach, Crash), so a
// wrapped run takes the same code paths as an unwrapped one.
type timedFabric struct {
	inner sb.Transport
	// wrap names the streams whose handles are timed; nil times all.
	wrap map[string]bool
	// light records only the two timestamps per (step, rank) the
	// end-to-end metrics need: publish start/end on writers, step-meta
	// return and release return on readers.
	light bool

	mu       sync.Mutex
	attaches []span
	writers  []*writerLog
	readers  []*readerLog
}

type span struct{ start, end int64 }

func (s span) ns() int64 { return s.end - s.start }

// pubRec is one PublishBlock(Ref) call.
type pubRec struct {
	step          int
	start, end    int64
	meta, payload int
}

// readRec is one reader rank's view of one step.
type readRec struct {
	step               int
	metaStart, metaEnd int64
	fetchNs            int64
	fetchBytes         int64
	relStart, relEnd   int64
	releases           int // successful ReleaseStep calls: exactly once
}

type writerLog struct {
	stream   string
	rank     int
	attached int64 // attach return: the start of the rank's wall time
	pubs     []pubRec
}

type readerLog struct {
	stream string
	rank   int
	steps  []readRec
}

func newTimedFabric(inner sb.Transport, light bool, wrap ...string) *timedFabric {
	f := &timedFabric{inner: inner, light: light}
	if len(wrap) > 0 {
		f.wrap = map[string]bool{}
		for _, s := range wrap {
			f.wrap[s] = true
		}
	}
	return f
}

func (f *timedFabric) wraps(stream string) bool { return f.wrap == nil || f.wrap[stream] }

func (f *timedFabric) noteAttach(s span) {
	f.mu.Lock()
	f.attaches = append(f.attaches, s)
	f.mu.Unlock()
}

// AttachWriter implements sb.Transport.
func (f *timedFabric) AttachWriter(stream string, rank, size, depth int) (adios.BlockWriter, error) {
	start := now()
	w, err := f.inner.AttachWriter(stream, rank, size, depth)
	end := now()
	f.noteAttach(span{start, end})
	if err != nil || !f.wraps(stream) {
		return w, err
	}
	log := &writerLog{stream: stream, rank: rank, attached: end}
	f.mu.Lock()
	f.writers = append(f.writers, log)
	f.mu.Unlock()
	tw := &timedWriter{inner: w, log: log}
	if _, ok := w.(adios.RefBlockWriter); ok {
		return &timedRefWriter{tw}, nil
	}
	return tw, nil
}

// AttachReader implements sb.Transport.
func (f *timedFabric) AttachReader(stream string, rank, size int) (adios.BlockReader, error) {
	start := now()
	r, err := f.inner.AttachReader(stream, rank, size)
	f.noteAttach(span{start, now()})
	if err != nil || !f.wraps(stream) {
		return r, err
	}
	return f.wrapReader(stream, rank, r), nil
}

// wrapReader times an already attached reader handle (also used for the
// catch-up reader, which is not opened through sb.Transport).
func (f *timedFabric) wrapReader(stream string, rank int, r adios.BlockReader) *timedReader {
	log := &readerLog{stream: stream, rank: rank}
	f.mu.Lock()
	f.readers = append(f.readers, log)
	f.mu.Unlock()
	return &timedReader{inner: r, log: log, light: f.light}
}

// Capability probes the program makes on transport handles (package sb
// declares the same method sets unexported).
type (
	stepper  interface{ NextStep() int }
	detacher interface{ Detach() error }
	crasher  interface{ Crash(cause error) error }
)

// timedWriter decorates a writer handle. Every probed capability is
// forwarded; where the inner handle lacks one, the fallback is the one
// the program itself applies (resume at 0, Close instead of Detach or
// Crash).
type timedWriter struct {
	inner adios.BlockWriter
	log   *writerLog
}

func (w *timedWriter) record(step int, start int64, meta, payload int) {
	w.log.pubs = append(w.log.pubs, pubRec{step: step, start: start, end: now(), meta: meta, payload: payload})
}

func (w *timedWriter) PublishBlock(ctx context.Context, step int, meta, payload []byte) error {
	start := now()
	err := w.inner.PublishBlock(ctx, step, meta, payload)
	if err == nil {
		w.record(step, start, len(meta), len(payload))
	}
	return err
}

func (w *timedWriter) Close() error { return w.inner.Close() }

func (w *timedWriter) NextStep() int {
	if s, ok := w.inner.(stepper); ok {
		return s.NextStep()
	}
	return 0
}

func (w *timedWriter) Detach() error {
	if d, ok := w.inner.(detacher); ok {
		return d.Detach()
	}
	return w.inner.Close()
}

func (w *timedWriter) Crash(cause error) error {
	if c, ok := w.inner.(crasher); ok {
		return c.Crash(cause)
	}
	return w.inner.Close()
}

// timedRefWriter adds the zero-copy capability, offered only when the
// inner handle has it so adios.Writer's probe sees what it would see
// without the decorator.
type timedRefWriter struct{ *timedWriter }

func (w *timedRefWriter) PublishBlockRef(ctx context.Context, step int, meta, payload *pool.Buf) error {
	// Lengths are read before the call: the references are consumed.
	m, p := meta.Len(), payload.Len()
	start := now()
	err := w.inner.(adios.RefBlockWriter).PublishBlockRef(ctx, step, meta, payload)
	if err == nil {
		w.record(step, start, m, p)
	}
	return err
}

// timedReader decorates a reader handle. The program probes readers
// for NextStep and Detach only.
type timedReader struct {
	inner adios.BlockReader
	log   *readerLog
	light bool
}

// stamp reads the clock, except in light mode where only the step-meta
// and release return times are kept.
func (r *timedReader) stamp() int64 {
	if r.light {
		return 0
	}
	return now()
}

// rec returns the record of step, the latest one (steps are read in
// order, one at a time per rank).
func (r *timedReader) rec(step int) *readRec {
	if n := len(r.log.steps); n > 0 && r.log.steps[n-1].step == step {
		return &r.log.steps[n-1]
	}
	return nil
}

func (r *timedReader) StepMeta(ctx context.Context, step int) ([][]byte, error) {
	start := r.stamp()
	metas, err := r.inner.StepMeta(ctx, step)
	if err == nil && r.rec(step) == nil {
		r.log.steps = append(r.log.steps, readRec{step: step, metaStart: start, metaEnd: now()})
	}
	return metas, err
}

func (r *timedReader) FetchBlock(ctx context.Context, step, writerRank int) ([]byte, error) {
	if r.light {
		return r.inner.FetchBlock(ctx, step, writerRank)
	}
	start := now()
	p, err := r.inner.FetchBlock(ctx, step, writerRank)
	if rec := r.rec(step); rec != nil && err == nil {
		rec.fetchNs += now() - start
		rec.fetchBytes += int64(len(p))
	}
	return p, err
}

func (r *timedReader) ReleaseStep(step int) error {
	start := r.stamp()
	err := r.inner.ReleaseStep(step)
	if rec := r.rec(step); rec != nil && err == nil {
		rec.relStart, rec.relEnd = start, now()
		rec.releases++
	}
	return err
}

func (r *timedReader) Close() error { return r.inner.Close() }

func (r *timedReader) NextStep() int {
	if s, ok := r.inner.(stepper); ok {
		return s.NextStep()
	}
	return 0
}

func (r *timedReader) Detach() error {
	if d, ok := r.inner.(detacher); ok {
		return d.Detach()
	}
	return r.inner.Close()
}
