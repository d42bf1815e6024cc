package flexpath

import (
	"errors"
	"fmt"
	"net"
	"os"
	"syscall"
)

// Unix-domain-socket backend: the TCP broker protocol verbatim — same
// CRC frame codec, same opcode set, same Server loop — carried over
// AF_UNIX instead of loopback TCP. The local-host kernel path is
// cheaper (no pseudo-header checksums, no loopback queueing
// discipline); the hot path is otherwise TCP's, where each published
// step and each block fetch response leaves the process as one writev
// from the payload's own storage (see writeFrameVec).

// NewUnixServer starts a broker server on a Unix-domain socket at
// path. A stale socket file left by a dead broker is replaced; a live
// broker on the same path is an error. Ownership of the path is
// arbitrated by an exclusive flock on a sidecar lock file (path +
// ".lock"), held for the server's lifetime — so two brokers racing for
// the same path resolve to exactly one winner, and neither can unlink
// a socket the other just bound (the probe-dial-then-unlink approach
// this replaces had exactly that race). The socket file is removed
// when the server closes; the lock file is left behind (unlinking it
// would reopen the race) but its flock releases with the process.
func NewUnixServer(broker *Broker, path string) (*Server, error) {
	ln, lock, err := listenUnix(path)
	if err != nil {
		return nil, err
	}
	s := serve(broker, ln)
	s.cleanup = func() { lock.Close() }
	return s, nil
}

// listenUnix binds the socket under the protection of an exclusive
// lock file. The flock decides liveness: a dead broker's flock is
// released by the kernel no matter how the process died, so holding it
// proves any existing socket file is stale and safe to unlink; failing
// to take it proves a live broker owns the path.
func listenUnix(path string) (*net.UnixListener, *os.File, error) {
	lock, err := os.OpenFile(path+".lock", os.O_CREATE|os.O_RDWR, 0o600)
	if err != nil {
		return nil, nil, fmt.Errorf("flexpath: opening lock for %s: %w", path, err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, nil, fmt.Errorf("flexpath: listening on %s: %w (broker already running)", path, err)
	}
	addr := &net.UnixAddr{Name: path, Net: "unix"}
	ln, err := net.ListenUnix("unix", addr)
	if errors.Is(err, syscall.EADDRINUSE) {
		// We hold the lock, so whoever bound this socket is gone: the file
		// is a leftover from an unclean shutdown. Unlink and retry once.
		if rmErr := os.Remove(path); rmErr != nil {
			lock.Close()
			return nil, nil, fmt.Errorf("flexpath: removing stale socket %s: %w", path, rmErr)
		}
		ln, err = net.ListenUnix("unix", addr)
	}
	if err != nil {
		lock.Close()
		return nil, nil, fmt.Errorf("flexpath: listening on %s: %w", path, err)
	}
	return ln, lock, nil
}

// DialUnix prepares a client for a broker socket path. No connection is
// made until a handle attaches.
func DialUnix(path string) *Client { return dial("unix", path) }
