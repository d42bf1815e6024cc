package bench

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/flexpath"
	"repro/internal/sb"
)

// BackendFactory builds a fresh stream fabric for one benchmark
// workflow run and returns the transport plus a teardown. Every run
// gets its own broker so sweep points never share queue state.
type BackendFactory func() (sb.Transport, func(), error)

// InprocBackend is the default fabric: broker and components share one
// address space, exchanges are channel handoffs of pooled buffers.
func InprocBackend() (sb.Transport, func(), error) {
	return sb.Fabric{T: flexpath.NewInProc()}, func() {}, nil
}

// TCPLoopbackBackend serves a private broker on 127.0.0.1 and connects
// through it, paying the full socket round trip per exchange.
func TCPLoopbackBackend() (sb.Transport, func(), error) {
	srv, err := flexpath.NewServer(flexpath.NewBroker(), "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("bench: tcp backend: %w", err)
	}
	client := flexpath.Dial(srv.Addr())
	return sb.Fabric{T: flexpath.Remote{C: client}}, func() {
		client.Close()
		srv.Close()
	}, nil
}

// UDSBackend serves a private broker on a Unix-domain socket — same
// frame codec and gathered (one writev per step) publish path as TCP,
// but no TCP loopback stack.
func UDSBackend() (sb.Transport, func(), error) {
	dir, err := os.MkdirTemp("", "sbbench-uds")
	if err != nil {
		return nil, nil, err
	}
	srv, err := flexpath.NewUnixServer(flexpath.NewBroker(), filepath.Join(dir, "b.sock"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, fmt.Errorf("bench: uds backend: %w", err)
	}
	client := flexpath.DialUnix(srv.Addr())
	return sb.Fabric{T: flexpath.Remote{C: client}}, func() {
		client.Close()
		srv.Close()
		os.RemoveAll(dir)
	}, nil
}

// ShmBackend serves a private broker over the shared-memory ring: the
// Unix socket carries control and metadata only, payloads travel
// through a mmap'd segment the broker and every rank map in common.
// The segment lives on tmpfs when the host has one — a disk-backed
// segment pays dirty-page writeback on every slot fill, which is the
// socket tax this backend exists to avoid.
func ShmBackend() (sb.Transport, func(), error) {
	parent := ""
	if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
		parent = "/dev/shm"
	}
	dir, err := os.MkdirTemp(parent, "sbbench-shm")
	if err != nil {
		return nil, nil, err
	}
	srv, err := flexpath.NewShmServer(flexpath.NewBroker(), filepath.Join(dir, "b.sock"), flexpath.ShmConfig{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, fmt.Errorf("bench: shm backend: %w", err)
	}
	client := flexpath.DialShm(srv.Addr())
	return sb.Fabric{T: client}, func() {
		client.Close()
		srv.Close()
		os.RemoveAll(dir)
	}, nil
}
