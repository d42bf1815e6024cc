package flexpath_test

import (
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/flexpath"
	"repro/internal/obs"
	"repro/internal/streamlog"
)

func openStore(t *testing.T, dir string) *streamlog.Store {
	t.Helper()
	store, err := streamlog.OpenStore(dir, streamlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// waitLogged polls until the stream's durable log has journaled steps
// up to (but excluding) next — the write-behind appender is async.
func waitLogged(t *testing.T, store *streamlog.Store, stream string, next int) {
	t.Helper()
	lg, err := store.Log(stream)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for lg.NextStep() < next {
		if time.Now().After(deadline) {
			t.Fatalf("log never reached step %d (at %d)", next, lg.NextStep())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// The core crash-recovery loop at broker granularity: publish through a
// logged broker, drop the broker entirely, rebuild a fresh one from the
// same directory, and resume — readers see every step, a re-attaching
// writer resumes exactly after the durable head.
func TestBrokerRecoverFromLog(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	dir := t.TempDir()

	store1 := openStore(t, dir)
	b1 := flexpath.NewBroker()
	b1.AttachLog(store1)
	w, err := b1.AttachWriter("rec", 0, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		if err := w.PublishBlock(ctx, s, []byte{byte('m'), byte(s)}, []byte{byte('p'), byte(s)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Detach(); err != nil {
		t.Fatal(err)
	}
	waitLogged(t, store1, "rec", 3)
	// "Crash": abandon b1, release the directory.
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	store2 := openStore(t, dir)
	defer store2.Close()
	b2 := flexpath.NewBroker()
	b2.AttachLog(store2)
	n, err := b2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d streams, want 1", n)
	}
	// A re-attaching writer resumes after the durable head.
	w2, err := b2.AttachWriter("rec", 0, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := w2.NextStep(); got != 3 {
		t.Fatalf("recovered writer NextStep = %d, want 3", got)
	}
	if err := w2.PublishBlock(ctx, 3, []byte("m3"), []byte("p3")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	// A reader attached to the recovered broker sees the full history:
	// recovered steps from the reloaded window, the new step live.
	r, err := b2.AttachReader("rec", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		metas, err := r.StepMeta(ctx, s)
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		if len(metas) != 1 {
			t.Fatalf("step %d: %d metas", s, len(metas))
		}
		p, err := r.FetchBlock(ctx, s, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := []byte{byte('p'), byte(s)}
		if s == 3 {
			want = []byte("p3")
		}
		if string(p) != string(want) {
			t.Fatalf("step %d payload = %q, want %q", s, p, want)
		}
		if err := r.ReleaseStep(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.StepMeta(ctx, 4); !errors.Is(err, io.EOF) {
		t.Fatalf("past end = %v, want EOF", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// A stream whose writer group closed cleanly recovers as ended: a
// reader on the rebuilt broker drains the window and then gets EOF
// without any writer ever re-attaching.
func TestBrokerRecoverEndedStream(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	dir := t.TempDir()

	store1 := openStore(t, dir)
	b1 := flexpath.NewBroker()
	b1.AttachLog(store1)
	w, err := b1.AttachWriter("rec.end", 0, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		if err := w.PublishBlock(ctx, s, nil, []byte{byte(s)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The end record trails the last step; wait for the appender to
	// drain it before releasing the directory.
	lg, err := store1.Log("rec.end")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ended := lg.Ended(); ended {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("end record never journaled")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	store2 := openStore(t, dir)
	defer store2.Close()
	b2 := flexpath.NewBroker()
	b2.AttachLog(store2)
	if _, err := b2.Recover(); err != nil {
		t.Fatal(err)
	}
	r, err := b2.AttachReader("rec.end", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for s := 0; s < 2; s++ {
		p, err := r.FetchBlock(ctx, s, 0)
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		if len(p) != 1 || p[0] != byte(s) {
			t.Fatalf("step %d payload = %v", s, p)
		}
		if err := r.ReleaseStep(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.StepMeta(ctx, 2); !errors.Is(err, io.EOF) {
		t.Fatalf("recovered ended stream = %v, want EOF", err)
	}
}

// Recover without a log store is a loud error, and replay without a
// log store is refused at open.
func TestRecoverRequiresLog(t *testing.T) {
	b := flexpath.NewBroker()
	if _, err := b.Recover(); err == nil {
		t.Fatal("Recover without a store succeeded")
	}
	if _, err := b.OpenReaderFrom("nope", 0); err == nil {
		t.Fatal("OpenReaderFrom without a store succeeded")
	}
	b.AttachLog(openStoreTemp(t))
	if _, err := b.OpenReaderFrom("nope", -1); err == nil {
		t.Fatal("OpenReaderFrom at negative step succeeded")
	}
}

// An append error on a live durable stream degrades it to memory-only
// without wedging the workflow — and says so: log.degraded_streams
// counts the stream once, tracing or not. The queue depth of 2 means a
// stream whose durability gate stayed up would block the writer by the
// fourth step.
func TestLogAppendErrorDegradesStream(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	store := openStoreTemp(t)
	reg := obs.NewRegistry()
	b := flexpath.NewBroker()
	b.SetObserver(nil, reg)
	b.AttachLog(store)
	w, err := b.AttachWriter("degrade", 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := b.AttachReader("degrade", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	lg, err := store.Log("degrade")
	if err != nil {
		t.Fatal(err)
	}
	const steps = 8
	for s := 0; s < steps; s++ {
		if err := w.PublishBlock(ctx, s, nil, []byte{byte(s)}); err != nil {
			t.Fatalf("publish step %d: %v", s, err)
		}
		if s == 0 {
			// Step 0 is durable; every append after it fails.
			waitLogged(t, store, "degrade", 1)
			if err := lg.Close(); err != nil {
				t.Fatal(err)
			}
		}
		p, err := r.FetchBlock(ctx, s, 0)
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		if len(p) != 1 || p[0] != byte(s) {
			t.Fatalf("step %d payload = %v", s, p)
		}
		if err := r.ReleaseStep(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.StepMeta(ctx, steps); !errors.Is(err, io.EOF) {
		t.Fatalf("past end = %v, want EOF", err)
	}
	if got := reg.Snapshot()["log.degraded_streams"]; got != 1 {
		t.Fatalf("log.degraded_streams = %d, want 1", got)
	}
	if got := lg.NextStep(); got != 1 {
		t.Fatalf("log holds steps up to %d after degrading, want 1", got)
	}
}

func openStoreTemp(t *testing.T) *streamlog.Store {
	t.Helper()
	store := openStore(t, t.TempDir())
	t.Cleanup(func() { store.Close() })
	return store
}

// A replay reader blocked waiting for an unpublished step over TCP,
// torn down by a server shutdown, must surface the retryable
// ErrBrokerClosed — the in-flight replay op ends cleanly, not with a
// raw short-read.
func TestReplayShutdownInFlightTCP(t *testing.T) {
	b := flexpath.NewBroker()
	b.AttachLog(openStoreTemp(t))
	srv, err := flexpath.NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := flexpath.Dial(srv.Addr())
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w, err := c.AttachWriter("rep.shutdown", 0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.PublishBlock(ctx, 0, []byte("m"), []byte("p")); err != nil {
		t.Fatal(err)
	}
	// Detach the writer cleanly so the shutdown below cannot be read as
	// a writer crash (which would fail the stream with ErrWriterLost
	// before the replay connection itself is severed).
	if err := w.Detach(); err != nil {
		t.Fatal(err)
	}
	rr, err := c.OpenReaderFrom("rep.shutdown", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rr.StepMeta(ctx, 0); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		// Step 1 is never published: this replay op is parked in the
		// broker when the server goes down.
		_, err := rr.StepMeta(context.Background(), 1)
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond)
	srv.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, flexpath.ErrBrokerClosed) {
			t.Fatalf("in-flight replay op after shutdown = %v, want ErrBrokerClosed", err)
		}
		// The classifier marks the loss transient so a supervisor
		// retries, and it must NOT satisfy the io.EOF end-of-stream
		// check — that is reserved for the broker's explicit EOF answer.
		var te interface{ Transient() bool }
		if !errors.As(err, &te) || !te.Transient() {
			t.Fatal("ErrBrokerClosed loss is not marked Transient")
		}
		if errors.Is(err, io.EOF) {
			t.Fatal("connection loss unwraps to io.EOF — would be mistaken for end-of-stream")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight replay op never unblocked")
	}
}
