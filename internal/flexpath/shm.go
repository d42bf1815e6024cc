package flexpath

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/pool"
)

// Shared-memory backend: same-node multi-process runs pay the socket
// tax (user→kernel→user copies in both directions) for payloads that
// never leave the machine. This backend splits the transport in two:
//
//   - A doorbell channel — the ordinary Unix-socket broker protocol
//     (CRC frames, heartbeat leases, cancel, replay attach) carries
//     attach/detach, step metadata, and control RPCs. Everything the
//     socket backends learned about liveness and settlement carries
//     over verbatim because it IS the same server loop.
//   - A data plane — an mmap'd, file-backed segment (the socket path +
//     ".seg", so the flock arbitration that owns the socket also owns
//     the segment). Writers copy each payload once into a ring slot of
//     their own and publish a slot reference over the doorbell; readers
//     get views aliasing their mapping of the same physical pages. No
//     payload byte crosses a socket in either direction.
//
// Slot lifecycle rides the pool's refcount machinery: the broker wraps
// a published slot with pool.WrapOnFree, so the exact moment a step's
// fan-out ends (retirement drops the last reference) the hook returns
// the slot to its writer's ring.
//
// Per-slot control word (u64, atomically accessed by every process):
//
//	bits 63..32  generation, bumped by the writer on every claim
//	bits 31..0   state: 0 = free, 1 = busy (claimed or published)
//
// The word is also the cross-process happens-before chain, on real
// hardware and under the race detector alike:
//
//	writer: observe free (acquire) → write payload → store gen+1|busy
//	broker: opShmPublish validates gen (acquire) → wraps the slot
//	reader: fetch response → validate gen (acquire: sees the payload)
//	reader: read payload → RMW "touch" (add 0) at release time
//	broker: final ref drops → RMW busy→free (joins the touch's
//	        release sequence)
//	writer: observe free (acquire: sees every reader's reads) → reuse
//
// The reader-side touch looks like a no-op but is the edge that lets a
// writer's reuse of the slot happen-after every reader's last read —
// without it the only path from reader to writer would run through the
// release RPC, which is invisible to the race detector when both ends
// live in one test process.
//
// Ring sizing: a writer's ring defaults to queueDepth+1 slots, which
// can never block before the broker's own queue window does — claiming
// the slot for step s reuses the slot of step s-(depth+1), and the
// window admitting step s-1 already implied that step retired. Smaller
// rings (ShmConfig.RingSlots) are honored and exercise the
// opShmWaitSlot backpressure path; the conformance suite pins that
// behavior.

// ShmConfig sizes the shared segment. The zero value selects defaults.
type ShmConfig struct {
	// SegmentBytes is the byte size of the mapped segment file (default
	// 256 MiB). The file is created sparse, so untouched slots cost no
	// memory; /dev/shm-backed paths cost RAM only for pages written.
	SegmentBytes int64
	// SlotBytes is the payload capacity of one ring slot (default
	// 4 MiB). Payloads larger than a slot fall back to the inline
	// socket path transparently.
	SlotBytes int
	// RingSlots fixes the per-writer ring length. 0 lets the broker
	// choose queueDepth+1, which never blocks a writer the queue window
	// would admit.
	RingSlots int
}

func (c ShmConfig) withDefaults() ShmConfig {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 256 << 20
	}
	if c.SlotBytes <= 0 {
		c.SlotBytes = 4 << 20
	}
	return c
}

// Segment header layout (bytes). The header is written once by the
// broker before the doorbell socket accepts its first connection, so a
// client that attached successfully always maps a fully formed segment.
const (
	shmMagic       = "SBSHMSEG"
	shmVersion     = 1
	shmHdrVersion  = 8  // u32
	shmHdrSlotSize = 16 // u64
	shmHdrSlots    = 24 // u64
	shmHdrCtrlOff  = 32 // u64
	shmHdrDataOff  = 40 // u64
	shmHeaderBytes = 64
	shmPageAlign   = 4096
)

const shmBusyBit = uint64(1)

func shmWord(gen uint32, busy bool) uint64 {
	w := uint64(gen) << 32
	if busy {
		w |= shmBusyBit
	}
	return w
}

func shmGenOf(w uint64) uint32 { return uint32(w >> 32) }
func shmBusy(w uint64) bool    { return w&0xffffffff != 0 }

// shmSegment is one process's mapping of the shared segment file.
type shmSegment struct {
	f         *os.File
	mem       []byte
	slotBytes int
	slotCount int
	ctrlOff   int
	dataOff   int
}

func putU64(b []byte, off int, v uint64) {
	for i := 0; i < 8; i++ {
		b[off+i] = byte(v >> (8 * i))
	}
}

func getU64(b []byte, off int) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[off+i]) << (8 * i)
	}
	return v
}

// createShmSegment creates (truncating any leftover) and maps the
// segment file. Only the broker calls this, under the socket flock.
func createShmSegment(path string, cfg ShmConfig) (*shmSegment, error) {
	cfg = cfg.withDefaults()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, fmt.Errorf("flexpath: creating shm segment %s: %w", path, err)
	}
	if err := f.Truncate(cfg.SegmentBytes); err != nil {
		f.Close()
		return nil, fmt.Errorf("flexpath: sizing shm segment %s: %w", path, err)
	}
	// Solve for the slot count that fits control words + data in the
	// segment, with the data region page-aligned.
	slots := int((cfg.SegmentBytes - 2*shmPageAlign) / (int64(cfg.SlotBytes) + 8))
	if slots < 1 {
		f.Close()
		return nil, fmt.Errorf("flexpath: shm segment %s too small for one %d-byte slot", path, cfg.SlotBytes)
	}
	ctrlOff := shmHeaderBytes
	dataOff := (ctrlOff + 8*slots + shmPageAlign - 1) &^ (shmPageAlign - 1)
	mem, err := mmapShared(f, int(cfg.SegmentBytes))
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("flexpath: mapping shm segment %s: %w", path, err)
	}
	copy(mem[:8], shmMagic)
	putU64(mem, shmHdrVersion, shmVersion) // writes version u32 + 4 zero bytes of padding
	putU64(mem, shmHdrSlotSize, uint64(cfg.SlotBytes))
	putU64(mem, shmHdrSlots, uint64(slots))
	putU64(mem, shmHdrCtrlOff, uint64(ctrlOff))
	putU64(mem, shmHdrDataOff, uint64(dataOff))
	return &shmSegment{f: f, mem: mem, slotBytes: cfg.SlotBytes, slotCount: slots,
		ctrlOff: ctrlOff, dataOff: dataOff}, nil
}

// openShmSegment maps an existing segment created by a broker.
func openShmSegment(path string) (*shmSegment, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("flexpath: opening shm segment %s: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	mem, err := mmapShared(f, int(fi.Size()))
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("flexpath: mapping shm segment %s: %w", path, err)
	}
	g := &shmSegment{f: f, mem: mem}
	if len(mem) < shmHeaderBytes || string(mem[:8]) != shmMagic {
		g.close()
		return nil, fmt.Errorf("flexpath: %s is not a shm segment", path)
	}
	if v := getU64(mem, shmHdrVersion); v != shmVersion {
		g.close()
		return nil, fmt.Errorf("flexpath: shm segment %s version %d, want %d", path, v, shmVersion)
	}
	g.slotBytes = int(getU64(mem, shmHdrSlotSize))
	g.slotCount = int(getU64(mem, shmHdrSlots))
	g.ctrlOff = int(getU64(mem, shmHdrCtrlOff))
	g.dataOff = int(getU64(mem, shmHdrDataOff))
	if g.dataOff+g.slotCount*g.slotBytes > len(mem) || g.ctrlOff+8*g.slotCount > g.dataOff {
		g.close()
		return nil, fmt.Errorf("flexpath: shm segment %s header inconsistent", path)
	}
	return g, nil
}

func (g *shmSegment) close() {
	if g.mem != nil {
		munmapShared(g.mem)
		g.mem = nil
	}
	if g.f != nil {
		g.f.Close()
		g.f = nil
	}
}

// ctrl returns the slot's control word for atomic access. The control
// region starts 64-byte aligned in a page-aligned mapping, so every
// word is naturally 8-aligned.
func (g *shmSegment) ctrl(slot int) *uint64 {
	return (*uint64)(unsafe.Pointer(&g.mem[g.ctrlOff+8*slot]))
}

// slotData returns the slot's full data window.
func (g *shmSegment) slotData(slot int) []byte {
	off := g.dataOff + slot*g.slotBytes
	return g.mem[off : off+g.slotBytes]
}

// slotIndex reports which slot a byte view aliases, if it is a view of
// this mapping's data region starting on a slot boundary. The broker
// uses it to answer fetches by reference instead of by copy.
func (g *shmSegment) slotIndex(p []byte) (int, bool) {
	if g == nil || len(p) == 0 {
		return 0, false
	}
	base := uintptr(unsafe.Pointer(unsafe.SliceData(g.mem)))
	q := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
	start := base + uintptr(g.dataOff)
	end := start + uintptr(g.slotCount*g.slotBytes)
	if q < start || q >= end {
		return 0, false
	}
	off := int(q - start)
	if off%g.slotBytes != 0 {
		return 0, false
	}
	return off / g.slotBytes, true
}

// shmRing is one writer rank's run of slots. Slot for step s is
// base + s%n, so in-order publishing cycles the run.
type shmRing struct {
	base, n int
}

func (r shmRing) slot(step int) int { return r.base + step%r.n }

// shmServerState is the broker side of the data plane: the segment and
// the ring allocator. Rings are keyed by (stream, writer rank) so a
// supervised re-attach resumes on the same slots its unretired steps
// still occupy; allocation is a bump pointer, never reclaimed — when
// the segment is exhausted new writers degrade to the inline path.
type shmServerState struct {
	seg *shmSegment

	mu       sync.Mutex
	nextSlot int
	rings    map[shmRingKey]shmRing
}

type shmRingKey struct {
	stream string
	rank   int
}

func (st *shmServerState) ring(stream string, rank, want int) shmRing {
	st.mu.Lock()
	defer st.mu.Unlock()
	k := shmRingKey{stream, rank}
	if r, ok := st.rings[k]; ok {
		return r
	}
	if want < 1 {
		want = 1
	}
	if st.nextSlot+want > st.seg.slotCount {
		return shmRing{}
	}
	r := shmRing{base: st.nextSlot, n: want}
	st.nextSlot += want
	st.rings[k] = r
	return r
}

// NewShmServer starts a shared-memory broker: a Unix-socket doorbell at
// path (flock-arbitrated exactly like NewUnixServer) plus the mapped
// segment at path+".seg". The segment is fully initialized before the
// doorbell accepts connections, so any client that attaches maps a
// valid segment. Shutdown unmaps and removes the segment alongside the
// socket.
func NewShmServer(broker *Broker, path string, cfg ShmConfig) (*Server, error) {
	if !shmAvailable() {
		return nil, errNoShm
	}
	ln, lock, err := listenUnix(path)
	if err != nil {
		return nil, err
	}
	segPath := path + ".seg"
	seg, err := createShmSegment(segPath, cfg)
	if err != nil {
		ln.Close()
		os.Remove(path)
		lock.Close()
		return nil, err
	}
	s := &Server{broker: broker, ln: ln, conns: map[net.Conn]struct{}{}, done: make(chan struct{}),
		shm: &shmServerState{seg: seg, rings: map[shmRingKey]shmRing{}}}
	s.cleanup = func() {
		seg.close()
		os.Remove(segPath)
		lock.Close()
	}
	go s.acceptLoop()
	return s, nil
}

var errNoShm = errors.New("flexpath: shm transport not supported on this platform")

// streamQueueDepth reads a live stream's queue depth (set once at the
// first writer attach, immutable after).
func (b *Broker) streamQueueDepth(stream string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.getStream(stream).queueDepth
}

// handleShmRing answers a writer's ring allocation. A zero requested
// size selects queueDepth+1 (never blocks before the queue window). An
// exhausted segment answers a zero-length ring: the writer falls back
// to inline publishes and the workflow keeps running.
func (s *Server) handleShmRing(conn net.Conn, resp *[]byte, body []byte, w *Writer) bool {
	fr := &frameReader{buf: body}
	want := int(fr.u32())
	if fr.err != nil {
		respondErr(conn, resp, fr.err)
		return false
	}
	if s.shm == nil {
		return respondErr(conn, resp, errors.New("flexpath: broker has no shared-memory segment")) == nil
	}
	if want == 0 {
		want = s.broker.streamQueueDepth(w.s.name) + 1
	}
	r := s.shm.ring(w.s.name, w.rank, want)
	return respondOK(conn, resp, func(f *frameWriter) {
		f.u32(uint32(r.base))
		f.u32(uint32(r.n))
	}) == nil
}

// handleShmPublish accepts a step whose payload the writer already
// placed in a ring slot. Ownership of the slot's busy claim passes to
// the broker the moment the request parses: every outcome — publish,
// rejection, cancellation — ends in the wrapped buffer's references
// being consumed, whose final Release frees the slot. The client never
// rolls a claim back, so there is no ambiguous double-free window.
func (s *Server) handleShmPublish(conn net.Conn, resp *[]byte, body []byte,
	arm func() (context.Context, func()), w *Writer) bool {
	fr := &frameReader{buf: body}
	step := int(fr.u32())
	slot := int(fr.u32())
	gen := fr.u32()
	plen := int(fr.u32())
	metaB := fr.bytes()
	if fr.err != nil {
		respondErr(conn, resp, fr.err)
		return false
	}
	shm := s.shm
	if shm == nil || slot < 0 || slot >= shm.seg.slotCount || plen > shm.seg.slotBytes {
		respondErr(conn, resp, fmt.Errorf("flexpath: invalid shm publish (slot %d, %d bytes)", slot, plen))
		return false
	}
	ctrl := shm.seg.ctrl(slot)
	// Acquire-load: observing the writer's published control word makes
	// its payload bytes visible to every broker-side consumer (log
	// appender, inline fallback serving).
	if cw := atomic.LoadUint64(ctrl); shmGenOf(cw) != gen || !shmBusy(cw) {
		respondErr(conn, resp, fmt.Errorf("flexpath: shm slot %d generation mismatch (have %08x, claimed %08x)", slot, shmGenOf(atomic.LoadUint64(ctrl)), gen))
		return false
	}
	meta := pool.Get(len(metaB))
	copy(meta.Bytes(), metaB)
	payload := pool.WrapOnFree(shm.seg.slotData(slot)[:plen], func() {
		// busy→free keeping the generation; an atomic RMW so it joins
		// the release sequence of the readers' touches — the writer's
		// next acquire of this word happens-after their last reads. The
		// hook may run under the broker lock (retirement) or without it
		// (appender, server response paths); it is atomic-only either
		// way, and every waiter rechecks on a poll tick.
		atomic.AddUint64(ctrl, ^uint64(0))
	})
	opCtx, release := arm()
	err := w.PublishBlockRef(opCtx, step, meta, payload)
	release()
	if err != nil {
		return respondErr(conn, resp, err) == nil
	}
	return respondOK(conn, resp, nil) == nil
}

// handleShmWaitSlot parks a writer until its ring slot returns to free.
// This is the ring-full backpressure path: reached only when the ring
// is deliberately smaller than queueDepth+1, so a cold 500µs poll is
// plenty — and polling sidesteps every missed-wakeup hazard of waiting
// on broker state from a reclamation hook that must stay lock-free.
func (s *Server) handleShmWaitSlot(conn net.Conn, resp *[]byte, body []byte,
	arm func() (context.Context, func())) bool {
	fr := &frameReader{buf: body}
	slot := int(fr.u32())
	if fr.err != nil {
		respondErr(conn, resp, fr.err)
		return false
	}
	shm := s.shm
	if shm == nil || slot < 0 || slot >= shm.seg.slotCount {
		respondErr(conn, resp, fmt.Errorf("flexpath: invalid shm wait (slot %d)", slot))
		return false
	}
	ctrl := shm.seg.ctrl(slot)
	opCtx, release := arm()
	var err error
	for shmBusy(atomic.LoadUint64(ctrl)) {
		if err = opCtx.Err(); err != nil {
			break
		}
		select {
		case <-opCtx.Done():
			err = opCtx.Err()
		case <-time.After(500 * time.Microsecond):
		}
		if err != nil {
			break
		}
	}
	release()
	if err != nil {
		return respondErr(conn, resp, err) == nil
	}
	return respondOK(conn, resp, nil) == nil
}

// handleShmFetch answers a block fetch by slot reference when the
// payload lives in the segment (flag 1: the reader reads it from its
// own mapping), falling back to inline bytes (flag 0) for payloads
// published through the socket path — oversized, empty, ring-exhausted,
// or replayed from the durable log.
func (s *Server) handleShmFetch(conn net.Conn, resp *[]byte, body []byte, vecs *net.Buffers,
	arm func() (context.Context, func()), r servedReader) bool {
	fr := &frameReader{buf: body}
	step := int(fr.u32())
	writerRank := int(fr.u32())
	if fr.err != nil {
		respondErr(conn, resp, fr.err)
		return false
	}
	opCtx, release := arm()
	payload, err := r.FetchBlockRef(opCtx, step, writerRank)
	release()
	if err != nil {
		return respondErr(conn, resp, err) == nil
	}
	if s.shm != nil {
		if slot, ok := s.shm.seg.slotIndex(payload.Bytes()); ok {
			gen := shmGenOf(atomic.LoadUint64(s.shm.seg.ctrl(slot)))
			werr := respondOK(conn, resp, func(f *frameWriter) {
				f.u8(1)
				f.u32(uint32(slot))
				f.u32(gen)
				f.u32(uint32(payload.Len()))
			})
			payload.Release()
			return werr == nil
		}
	}
	f := &frameWriter{buf: (*resp)[:0]}
	f.u8(stOK)
	f.u8(0)
	f.u32(uint32(payload.Len()))
	werr := writeFrameVec(conn, vecs, 0, f.buf, payload.Bytes())
	*resp = f.buf[:0]
	payload.Release()
	return werr == nil
}

// ShmTransport is the client side: the doorbell Client plus a lazy
// mapping of the broker's segment (lazy because the segment file only
// exists once the broker is up, and attach already retries until then).
type ShmTransport struct {
	c       *Client
	cfg     ShmConfig
	segPath string

	mu  sync.Mutex
	seg *shmSegment
}

// DialShm prepares a client for a shared-memory broker at the given
// doorbell socket path. No connection or mapping is made until a
// handle attaches.
func DialShm(path string) *ShmTransport {
	return DialShmConfig(path, ShmConfig{})
}

// DialShmConfig is DialShm with explicit ring sizing (conformance and
// benchmarks; the segment geometry itself always comes from the file
// header the broker wrote).
func DialShmConfig(path string, cfg ShmConfig) *ShmTransport {
	c := dial("unix", path)
	return &ShmTransport{c: c, cfg: cfg, segPath: path + ".seg"}
}

func (t *ShmTransport) ensureSeg() (*shmSegment, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.seg != nil {
		return t.seg, nil
	}
	seg, err := openShmSegment(t.segPath)
	if err != nil {
		return nil, err
	}
	t.seg = seg
	return seg, nil
}

// AttachWriter implements Transport: an ordinary doorbell attach, then
// a ring allocation. A zero-length ring (segment exhausted) degrades
// this writer to the inline socket path.
func (t *ShmTransport) AttachWriter(stream string, rank, size, depth int) (WriterHandle, error) {
	rw, err := t.c.AttachWriter(stream, rank, size, depth)
	if err != nil {
		return nil, err
	}
	seg, err := t.ensureSeg()
	if err != nil {
		rw.Detach()
		return nil, err
	}
	f := &frameWriter{}
	f.u32(uint32(t.cfg.RingSlots))
	fr, err := call(nil, rw.conn, &rw.wmu, opShmRing, f.buf, nil)
	if err != nil {
		rw.Detach()
		return nil, fmt.Errorf("flexpath: shm ring allocation: %w", err)
	}
	ring := shmRing{base: int(fr.u32()), n: int(fr.u32())}
	if fr.err != nil {
		rw.Detach()
		return nil, fr.err
	}
	return &ShmWriter{RemoteWriter: rw, seg: seg, ring: ring}, nil
}

// AttachReader implements Transport.
func (t *ShmTransport) AttachReader(stream string, rank, size int) (ReaderHandle, error) {
	rr, err := t.c.AttachReader(stream, rank, size)
	if err != nil {
		return nil, err
	}
	seg, err := t.ensureSeg()
	if err != nil {
		rr.Detach()
		return nil, err
	}
	return &ShmReader{RemoteReader: rr, seg: seg, viewed: map[int][]int{}}, nil
}

// OpenReaderFrom implements ReplayTransport. Replay sessions read
// history from the broker's log — heap bytes, not segment slots — and
// their live tail is served inline too, so a plain socket reader is the
// right vehicle; ReplayReader semantics carry over unchanged.
func (t *ShmTransport) OpenReaderFrom(stream string, from int) (ReaderHandle, error) {
	r, err := t.c.OpenReaderFrom(stream, from)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Close implements Transport: severs doorbell connections and unmaps
// the segment. Settle every handle first — views alias the mapping.
func (t *ShmTransport) Close() error {
	err := t.c.Close()
	t.mu.Lock()
	if t.seg != nil {
		t.seg.close()
		t.seg = nil
	}
	t.mu.Unlock()
	return err
}

// ShmWriter publishes payloads through ring slots, everything else
// through the embedded doorbell writer (heartbeats, settlement, inline
// fallback for oversized/empty payloads or an exhausted ring).
type ShmWriter struct {
	*RemoteWriter
	seg  *shmSegment
	ring shmRing
}

// PublishBlock implements WriterHandle. The payload is copied once,
// into this rank's ring slot; only step metadata and the slot reference
// cross the doorbell.
func (w *ShmWriter) PublishBlock(ctx context.Context, step int, meta, payload []byte) error {
	if w.ring.n == 0 || len(payload) == 0 || len(payload) > w.seg.slotBytes {
		return w.RemoteWriter.PublishBlock(ctx, step, meta, payload)
	}
	rw := w.RemoteWriter
	rw.mu.Lock()
	defer rw.mu.Unlock()
	if rw.closed {
		return ErrClosed
	}
	slot := w.ring.slot(step)
	ctrl := w.seg.ctrl(slot)
	// Claim: wait for the slot to come back from its previous step. The
	// acquire load is the happens-before edge over every reader's last
	// read of the old payload. With the default ring (queueDepth+1) the
	// wait RPC is never taken — the queue window blocks first.
	for shmBusy(atomic.LoadUint64(ctrl)) {
		f := &frameWriter{buf: rw.fbuf[:0]}
		f.u32(uint32(slot))
		rw.fbuf = f.buf
		if _, err := call(ctx, rw.conn, &rw.wmu, opShmWaitSlot, f.buf, &rw.rbuf); err != nil {
			return err
		}
	}
	gen := shmGenOf(atomic.LoadUint64(ctrl)) + 1
	copy(w.seg.slotData(slot), payload)
	// Publication point: the release store makes the payload bytes
	// visible to whoever acquires the new control word.
	atomic.StoreUint64(ctrl, shmWord(gen, true))
	f := &frameWriter{buf: rw.fbuf[:0]}
	f.u32(uint32(step))
	f.u32(uint32(slot))
	f.u32(gen)
	f.u32(uint32(len(payload)))
	f.bytes(meta)
	rw.fbuf = f.buf
	// From here the claim belongs to the broker (see handleShmPublish):
	// no rollback on error, so a cancelled-and-retried publish simply
	// claims the slot afresh.
	_, err := call(ctx, rw.conn, &rw.wmu, opShmPublish, f.buf, &rw.rbuf)
	if err == nil && step >= rw.next {
		rw.next = step + 1
	}
	return err
}

// PublishBlockRef implements WriterHandle, consuming both references.
func (w *ShmWriter) PublishBlockRef(ctx context.Context, step int, meta, payload *pool.Buf) error {
	err := w.PublishBlock(ctx, step, meta.Bytes(), payload.Bytes())
	meta.Release()
	payload.Release()
	return err
}

// ShmReader fetches payloads as views of its own segment mapping;
// metadata and every other operation ride the embedded doorbell reader.
type ShmReader struct {
	*RemoteReader
	seg *shmSegment

	smu    sync.Mutex
	viewed map[int][]int // step → slots this rank was handed views of
}

// FetchBlock implements ReaderHandle. A slot-backed answer is zero
// copy: the returned slice aliases this process's mapping and is valid
// until this rank releases the step (the broker cannot free the slot
// before then — this rank still gates retirement).
func (r *ShmReader) FetchBlock(ctx context.Context, step, writerRank int) ([]byte, error) {
	rr := r.RemoteReader
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if rr.closed {
		return nil, ErrClosed
	}
	f := &frameWriter{buf: rr.fbuf[:0]}
	f.u32(uint32(step))
	f.u32(uint32(writerRank))
	rr.fbuf = f.buf
	fr, err := call(ctx, rr.conn, &rr.wmu, opShmFetch, f.buf, &rr.rbuf)
	if err != nil {
		return nil, err
	}
	if fr.u8() == 1 {
		slot := int(fr.u32())
		gen := fr.u32()
		plen := int(fr.u32())
		if fr.err != nil {
			return nil, fr.err
		}
		if slot < 0 || slot >= r.seg.slotCount || plen > r.seg.slotBytes {
			return nil, fmt.Errorf("flexpath: shm fetch referenced invalid slot %d", slot)
		}
		// Acquire the control word: validates the generation (the slot
		// still holds the step we asked for — it cannot have been
		// reclaimed, since this rank has not released the step) and
		// orders the writer's payload store before our reads.
		if cw := atomic.LoadUint64(r.seg.ctrl(slot)); shmGenOf(cw) != gen || !shmBusy(cw) {
			return nil, fmt.Errorf("flexpath: shm slot %d generation changed under fetch (step %d)", slot, step)
		}
		r.smu.Lock()
		r.viewed[step] = append(r.viewed[step], slot)
		r.smu.Unlock()
		return r.seg.slotData(slot)[:plen], nil
	}
	payload := append([]byte(nil), fr.bytes()...)
	if fr.err != nil {
		return nil, fr.err
	}
	return payload, nil
}

// touch stamps an atomic RMW on every slot this rank viewed for the
// step: the release half of the reader→writer happens-before edge. It
// must run after the caller's last read of those views and before the
// broker can free the slots (i.e. before the release/settle RPC).
func (r *ShmReader) touch(step int) {
	r.smu.Lock()
	slots := r.viewed[step]
	delete(r.viewed, step)
	r.smu.Unlock()
	for _, slot := range slots {
		atomic.AddUint64(r.seg.ctrl(slot), 0)
	}
}

func (r *ShmReader) touchAll() {
	r.smu.Lock()
	var slots []int
	for step, s := range r.viewed {
		slots = append(slots, s...)
		delete(r.viewed, step)
	}
	r.smu.Unlock()
	for _, slot := range slots {
		atomic.AddUint64(r.seg.ctrl(slot), 0)
	}
}

// ReleaseStep implements ReaderHandle.
func (r *ShmReader) ReleaseStep(step int) error {
	r.touch(step)
	return r.RemoteReader.ReleaseStep(step)
}

// Close implements ReaderHandle.
func (r *ShmReader) Close() error {
	r.touchAll()
	return r.RemoteReader.Close()
}

// Detach implements ReaderHandle.
func (r *ShmReader) Detach() error {
	r.touchAll()
	return r.RemoteReader.Detach()
}
