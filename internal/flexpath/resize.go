package flexpath

import "fmt"

// ResizeGroups changes a stream's writer and/or reader group size at a
// step boundary, the broker half of elastic stage rescaling. A zero
// size leaves that side untouched. Both sides require every handle of
// the group to have detached first (the supervisor's detach/re-attach
// restart path): resizing under a live handle would invalidate its rank
// bookkeeping mid-step.
//
// Writer side. The resume boundary is B = min over ranks of the next
// step each would publish. Every step below B is fully published and
// stays buffered exactly as written (its stepState keeps its original
// size, so readers still see the old block count for those steps);
// every step at or above B is necessarily partial — at least one rank
// never published it — and is dropped, to be republished from scratch
// by the resized group, which resumes with every rank at B. Dropped
// partial steps were never handed to the durable log (only complete
// steps are framed), so no journal cleanup is needed.
//
// Reader side. The new group resumes at the old group's collective
// NextStep (the lowest unreleased step, clamped to the live window).
// Steps below the resume point are marked released by every new rank —
// the old group provably consumed them, and without the marks they
// would wedge behind the durability gate — while steps at or beyond it
// have their release marks cleared so the new group re-reads them;
// consumers deduplicate by step, so a re-read is idempotent.
//
// Exactly-once follows from the two boundaries composing: a downstream
// result for step s exists only if s was fully released, which requires
// s fully published upstream, which puts s below every writer boundary
// — so no step with an emitted result is ever recomputed by a resized
// group.
func (b *Broker) ResizeGroups(stream string, writerSize, readerSize int) error {
	if writerSize < 0 || readerSize < 0 {
		return fmt.Errorf("flexpath: negative group size for stream %q", stream)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	s, ok := b.streams[stream]
	if !ok {
		return fmt.Errorf("flexpath: resize of unknown stream %q", stream)
	}
	if writerSize > 0 && writerSize != s.writerSize {
		if err := s.resizeWriters(b, writerSize); err != nil {
			return err
		}
	}
	if readerSize > 0 && readerSize != s.readerSize {
		if err := s.resizeReaders(b, readerSize); err != nil {
			return err
		}
	}
	b.cond.Broadcast()
	return nil
}

// resizeWriters replaces the writer group. Caller holds b.mu and has
// checked size differs from the current one.
func (s *stream) resizeWriters(b *Broker, size int) error {
	if s.writerSize == 0 {
		// Pre-declaration: no group ever attached; just fix the size the
		// first attach must match.
		s.writerSize = size
		s.writerLive = make([]bool, size)
		s.writerDone = make([]bool, size)
		s.lastByRank = make([]int, size)
		for i := range s.lastByRank {
			s.lastByRank[i] = s.minStep
		}
		return nil
	}
	if s.ended {
		return fmt.Errorf("flexpath: stream %q writer group already closed, cannot resize", s.name)
	}
	if s.failed != nil {
		return fmt.Errorf("flexpath: stream %q failed, cannot resize: %w", s.name, s.failed)
	}
	if n := s.liveWriters(); n > 0 {
		return fmt.Errorf("flexpath: stream %q has %d live writer handle(s), detach before resizing", s.name, n)
	}
	boundary := s.lastByRank[0]
	for _, n := range s.lastByRank[1:] {
		if n < boundary {
			boundary = n
		}
	}
	for step, st := range s.steps {
		if step >= boundary {
			delete(s.steps, step)
			b.tenantAccountFree(s, st)
			b.obs.queuedSteps.Add(-1)
			st.free()
		}
	}
	s.writerSize = size
	s.writerLive = make([]bool, size)
	s.writerDone = make([]bool, size)
	s.writersClosed = 0
	s.lastByRank = make([]int, size)
	for i := range s.lastByRank {
		s.lastByRank[i] = boundary
	}
	return nil
}

// resizeReaders replaces the reader group. Caller holds b.mu and has
// checked size differs from the current one.
func (s *stream) resizeReaders(b *Broker, size int) error {
	if s.readerSize == 0 {
		s.readerSize = size
		s.readerLive = make([]bool, size)
		s.readerNext = make([]int, size)
		for i := range s.readerNext {
			s.readerNext[i] = s.minStep
		}
		return nil
	}
	if n := s.liveReaders(); n > 0 {
		return fmt.Errorf("flexpath: stream %q has %d live reader handle(s), detach before resizing", s.name, n)
	}
	next := s.resumeStep()
	s.readerSize = size
	s.readerLive = make([]bool, size)
	s.readerClosed = make(map[int]bool)
	s.readerNext = make([]int, size)
	for i := range s.readerNext {
		s.readerNext[i] = next
	}
	for step, st := range s.steps {
		if step < next {
			for rank := 0; rank < size; rank++ {
				st.released[rank] = true
			}
		} else {
			st.released = make(map[int]bool)
		}
	}
	for s.retireHead(b) {
	}
	return nil
}
