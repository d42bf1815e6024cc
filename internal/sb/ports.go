package sb

// This file defines the port-introspection contract the workflow plan IR
// is built on. A component's ports are the streams it subscribes to and
// publishes, each with the primary array it carries — declared from the
// component's parsed arguments, before anything runs. A Port names the
// array as well as the stream, which is what lets the planner check
// that two fused kernels actually hand the same variable to each other
// instead of merely meeting on a stream.

// PortDir distinguishes subscription from publication.
type PortDir int

const (
	// PortIn marks a stream the component subscribes to.
	PortIn PortDir = iota
	// PortOut marks a stream the component publishes.
	PortOut
)

// String renders the direction for plan output.
func (d PortDir) String() string {
	if d == PortIn {
		return "in"
	}
	return "out"
}

// Port is one end of a dataflow edge: a stream the component attaches
// to, the primary array it reads or writes there, and the direction.
type Port struct {
	Dir    PortDir
	Stream string
	// Array is the primary variable on the stream, or "" when the
	// component cannot name it statically (e.g. a pass-through that
	// republishes whatever arrives).
	Array string
}

// PortDeclarer is optionally implemented by components that can state,
// from their parsed arguments alone, exactly which streams they attach
// to. The workflow planner computes dataflow edges from these
// declarations — edges are derived, never guessed from launch-line
// order.
type PortDeclarer interface {
	Ports() []Port
}

// In filters ports to the subscriptions, preserving declaration order.
func In(ports []Port) []Port {
	var out []Port
	for _, p := range ports {
		if p.Dir == PortIn {
			out = append(out, p)
		}
	}
	return out
}

// Out filters ports to the publications, preserving declaration order.
func Out(ports []Port) []Port {
	var out []Port
	for _, p := range ports {
		if p.Dir == PortOut {
			out = append(out, p)
		}
	}
	return out
}
