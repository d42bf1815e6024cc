package workflow

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/components"
	"repro/internal/flexpath"
	"repro/internal/sb"
)

// This file is the workflow plan IR: an explicit dataflow graph derived
// from the spec before anything runs. Nodes are stages; edges are
// streams, computed from each component's declared ports — never guessed
// from launch-line order. The plan is what lint checks, what `sbrun
// -explain` prints, and what the stage-fusion optimizer rewrites.

// PlanNode is one stage of the plan: the stage as specified, the
// instantiated (but not yet running) component, and its declared ports.
type PlanNode struct {
	Index     int
	Stage     Stage
	Component sb.Component
	// Ins and Outs are the declared subscription/publication ports, in
	// declaration order. Both nil when Opaque.
	Ins, Outs []sb.Port
	// Opaque marks a component that declares nothing about its streams;
	// global reachability checks are suppressed when any node is opaque.
	Opaque bool
}

// Name renders the node for messages: "stage 2 (magnitude)".
func (n *PlanNode) Name() string {
	return fmt.Sprintf("stage %d (%s)", n.Index, n.Component.Name())
}

// PlanEdge is one dataflow edge: the stream carrying it, the array the
// producer publishes there (may be "" when undeclared), and the node
// indices it connects.
type PlanEdge struct {
	Stream   string
	Array    string
	From, To int
}

// Plan is the dataflow graph of a workflow spec.
type Plan struct {
	Spec  Spec
	Nodes []*PlanNode
	Edges []PlanEdge

	anyOpaque bool
}

// portsOf extracts a component's declared ports; ok is false for a
// component that declares none (an opaque stage).
func portsOf(comp sb.Component) (ins, outs []sb.Port, ok bool) {
	d, ok := comp.(sb.PortDeclarer)
	if !ok {
		return nil, nil, false
	}
	ports := d.Ports()
	return sb.In(ports), sb.Out(ports), true
}

// BuildPlan validates the spec, instantiates its components (without
// running them), and derives the dataflow graph from their declared
// ports. Stage instantiation errors surface here, synchronously — the
// same early-failure property Lint has always had.
func BuildPlan(spec Spec) (*Plan, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{Spec: spec, Nodes: make([]*PlanNode, len(spec.Stages))}
	for i, st := range spec.Stages {
		comp := st.Instance
		if comp == nil {
			var err error
			comp, err = components.New(st.Component, st.Args)
			if err != nil {
				return nil, fmt.Errorf("workflow %q stage %d: %w", spec.Name, i, err)
			}
		}
		n := &PlanNode{Index: i, Stage: st, Component: comp}
		var ok bool
		n.Ins, n.Outs, ok = portsOf(comp)
		if !ok {
			n.Opaque = true
			p.anyOpaque = true
		}
		p.Nodes[i] = n
	}
	// Edges: for every publication port, one edge per subscriber, in
	// (producer index, consumer index) order — deterministic by
	// construction.
	for _, from := range p.Nodes {
		for _, out := range from.Outs {
			for _, to := range p.Nodes {
				for _, in := range to.Ins {
					if in.Stream == out.Stream {
						p.Edges = append(p.Edges, PlanEdge{
							Stream: out.Stream, Array: out.Array,
							From: from.Index, To: to.Index,
						})
					}
				}
			}
		}
	}
	return p, nil
}

// EdgeTransport is one dataflow edge's resolved carrier: the relative
// placement of producer and consumer the choice implies, and the
// concrete backend the runner will move the edge's blocks over.
type EdgeTransport struct {
	Edge PlanEdge
	// Spec is the concrete transport (kind auto already resolved). For a
	// fused edge it is inproc — the handoff is a function call, no fabric
	// involved.
	Spec TransportSpec
	// Placement names what the choice implies about where the endpoints
	// sit: "fused" (one goroutine chain), "co-process" (inproc),
	// "same-node" (shm, uds), or "cross-node" (tcp).
	Placement string
	// Fused marks an edge the fusion pass elides from the fabric.
	Fused bool
	// Override marks an edge routed by a per-edge spec entry rather than
	// the workflow default.
	Override bool
}

// placementOf maps a concrete backend kind to the endpoint placement it
// implies.
func placementOf(kind string) string {
	switch kind {
	case flexpath.KindInproc:
		return "co-process"
	case flexpath.KindShm, flexpath.KindUDS:
		return "same-node"
	default:
		return "cross-node"
	}
}

// EdgeTransports resolves the transport carrying every edge, in edge
// order. The rules, first match wins:
//
//  1. an edge the fusion pass elides (spec.Fuse set and the edge is
//     interior to a fusable chain) needs no fabric at all — producer
//     and consumer share a goroutine;
//  2. a per-edge spec entry (the `transport ... stream=<name>`
//     directive) routes the edge, with kind auto resolved from its own
//     address shape;
//  3. otherwise the workflow default applies, likewise resolved.
//
// Resolution is pure: no runtime probing, so `sbrun -explain` shows
// exactly what a run would open.
func (p *Plan) EdgeTransports() []EdgeTransport {
	elided := map[string]bool{}
	if p.Spec.Fuse {
		for _, g := range p.FusionGroups() {
			for _, s := range g.Elided {
				elided[s] = true
			}
		}
	}
	out := make([]EdgeTransport, len(p.Edges))
	for i, e := range p.Edges {
		et := EdgeTransport{Edge: e}
		switch ts, ok := p.Spec.EdgeTransports[e.Stream]; {
		case elided[e.Stream]:
			et.Fused = true
			et.Spec = TransportSpec{Kind: flexpath.KindInproc}
			et.Placement = "fused"
		case ok:
			et.Override = true
			et.Spec = ts.Resolve()
			et.Placement = placementOf(et.Spec.Kind)
		default:
			et.Spec = p.Spec.Transport.Resolve()
			et.Placement = placementOf(et.Spec.Kind)
		}
		out[i] = et
	}
	return out
}

// publishers returns stream → producing nodes, in index order.
func (p *Plan) publishers() map[string][]*PlanNode {
	m := map[string][]*PlanNode{}
	for _, n := range p.Nodes {
		for _, out := range n.Outs {
			m[out.Stream] = append(m[out.Stream], n)
		}
	}
	return m
}

// subscribers returns stream → consuming nodes, in index order.
func (p *Plan) subscribers() map[string][]*PlanNode {
	m := map[string][]*PlanNode{}
	for _, n := range p.Nodes {
		for _, in := range n.Ins {
			m[in.Stream] = append(m[in.Stream], n)
		}
	}
	return m
}

// Issues cross-checks the plan's wiring:
//
//   - self-loops (a stage consuming its own output) are an error;
//   - two stages publishing the same stream is an error (a stream has
//     one writer group);
//   - a subscribed stream nobody publishes is an error (the reader
//     blocks forever) — suppressed when any stage is opaque;
//   - a published stream nobody consumes is a warning (the writer fills
//     its queue and stalls) — likewise suppressed;
//   - a dataflow cycle between distinct stages is an error (each stage
//     in the cycle waits on another's first step);
//   - a stage allocating more ranks than its input's producer is a
//     rank-mismatch warning: the partitioner may hand the surplus ranks
//     empty blocks.
func (p *Plan) Issues() []LintIssue {
	var issues []LintIssue
	pubs, subs := p.publishers(), p.subscribers()
	for _, n := range p.Nodes {
		for _, in := range n.Ins {
			for _, out := range n.Outs {
				if in.Stream == out.Stream {
					issues = append(issues, LintIssue{"error",
						fmt.Sprintf("%s consumes its own output stream %q", n.Name(), in.Stream)})
				}
			}
		}
	}
	names := func(nodes []*PlanNode) string {
		parts := make([]string, len(nodes))
		for i, n := range nodes {
			parts[i] = n.Name()
		}
		return strings.Join(parts, ", ")
	}
	for stream, producers := range pubs {
		if len(producers) > 1 {
			issues = append(issues, LintIssue{"error",
				fmt.Sprintf("stream %q published by multiple stages: %s", stream, names(producers))})
		}
	}
	for stream, consumers := range subs {
		if len(pubs[stream]) == 0 && !p.anyOpaque {
			issues = append(issues, LintIssue{"error",
				fmt.Sprintf("stream %q subscribed by %s but published by no stage", stream, names(consumers))})
		}
	}
	for stream, producers := range pubs {
		if len(subs[stream]) == 0 && !p.anyOpaque {
			issues = append(issues, LintIssue{"warning",
				fmt.Sprintf("stream %q published by %s but consumed by no stage", stream, names(producers))})
		}
	}
	if cycle := p.findCycle(); len(cycle) > 1 {
		parts := make([]string, len(cycle))
		for i, idx := range cycle {
			parts[i] = p.Nodes[idx].Name()
		}
		issues = append(issues, LintIssue{"error",
			fmt.Sprintf("dataflow cycle: %s", strings.Join(parts, " -> "))})
	}
	for _, e := range p.Edges {
		from, to := p.Nodes[e.From], p.Nodes[e.To]
		if e.From != e.To && to.Stage.Procs > from.Stage.Procs {
			issues = append(issues, LintIssue{"warning",
				fmt.Sprintf("%s runs %d ranks on stream %q produced by %d; surplus ranks may receive empty partitions",
					to.Name(), to.Stage.Procs, e.Stream, from.Stage.Procs)})
		}
	}
	sort.Slice(issues, func(i, j int) bool {
		if issues[i].Severity != issues[j].Severity {
			return issues[i].Severity < issues[j].Severity // errors first
		}
		return issues[i].Message < issues[j].Message
	})
	return issues
}

// findCycle returns the node indices of one dataflow cycle involving at
// least two distinct stages (self-loops are reported separately), or
// nil. The search is deterministic: nodes and edges are visited in
// index order.
func (p *Plan) findCycle() []int {
	next := make(map[int][]int)
	for _, e := range p.Edges {
		if e.From != e.To {
			next[e.From] = append(next[e.From], e.To)
		}
	}
	const (
		unseen = iota
		active
		done
	)
	state := make([]int, len(p.Nodes))
	var stack []int
	var cycle []int
	var visit func(i int) bool
	visit = func(i int) bool {
		state[i] = active
		stack = append(stack, i)
		for _, j := range next[i] {
			if state[j] == active {
				// Slice the stack from j's position: that's the cycle.
				for k, idx := range stack {
					if idx == j {
						cycle = append([]int(nil), stack[k:]...)
						return true
					}
				}
			}
			if state[j] == unseen && visit(j) {
				return true
			}
		}
		stack = stack[:len(stack)-1]
		state[i] = done
		return false
	}
	for i := range p.Nodes {
		if state[i] == unseen && visit(i) {
			return cycle
		}
	}
	return nil
}

// FusionGroup records one fused chain: which original stages it
// collapses, their component names in chain order, and the interior
// streams the fusion removes from the fabric.
type FusionGroup struct {
	Stages []int
	Parts  []string
	Procs  int
	Elided []string
}

// fusionEdge reports whether the edge joining from→to is eligible for
// fusion. All four conditions are structural — checkable from the plan
// alone:
//
//   - both components expose the kernel seam (sb.Fusable);
//   - the stages allocate the same rank count, so the fused stage is
//     one communicator and every interior handoff is rank-to-rank;
//   - the edge is 1:1 — the producer's sole output, the consumer's sole
//     input, and no other stage subscribes the stream — so eliding the
//     stream is invisible to the rest of the workflow;
//   - producer and consumer name the same array on the stream.
//
// Transport residency is trivially shared: a spec has one transport,
// so any two of its stages are co-resident by construction.
func (p *Plan) fusionEdge(e PlanEdge) bool {
	from, to := p.Nodes[e.From], p.Nodes[e.To]
	if _, ok := from.Component.(sb.Fusable); !ok {
		return false
	}
	if _, ok := to.Component.(sb.Fusable); !ok {
		return false
	}
	if from.Stage.Procs != to.Stage.Procs {
		return false
	}
	if len(from.Outs) != 1 || len(to.Ins) != 1 {
		return false
	}
	if len(p.subscribers()[e.Stream]) != 1 {
		return false
	}
	if from.Outs[0].Array == "" || from.Outs[0].Array != to.Ins[0].Array {
		return false
	}
	return true
}

// FusionGroups finds the maximal fusable chains: walking stages in
// index order, each un-fused fusable stage greedily absorbs its sole
// consumer while the connecting edge stays eligible. Deterministic —
// the same spec always fuses the same way.
func (p *Plan) FusionGroups() []FusionGroup {
	// successor[i] = j when the edge i→j is fusable.
	successor := make(map[int]int)
	hasPred := make(map[int]bool)
	for _, e := range p.Edges {
		if p.fusionEdge(e) {
			successor[e.From] = e.To
			hasPred[e.To] = true
		}
	}
	var groups []FusionGroup
	for i := range p.Nodes {
		if hasPred[i] {
			continue // interior or tail of a chain starting earlier
		}
		if _, ok := successor[i]; !ok {
			continue // no fusable edge out
		}
		g := FusionGroup{Stages: []int{i}, Procs: p.Nodes[i].Stage.Procs}
		g.Parts = append(g.Parts, p.Nodes[i].Component.Name())
		for j, ok := successor[i]; ok; j, ok = successor[j] {
			g.Elided = append(g.Elided, p.Nodes[j].Ins[0].Stream)
			g.Stages = append(g.Stages, j)
			g.Parts = append(g.Parts, p.Nodes[j].Component.Name())
		}
		groups = append(groups, g)
	}
	return groups
}

// FusedSpec is the result of the fusion pass: a runnable spec in which
// each fusable chain became one stage, plus the record of what fused.
type FusedSpec struct {
	Spec   Spec
	Groups []FusionGroup
}

// Fuse applies the fusion pass: every maximal fusable chain is replaced
// by a single stage running an sb.Fused composition of the chain's
// components. Stage order is preserved (a fused stage sits where its
// first part sat); untouched stages pass through unchanged. A plan with
// no eligible chains returns the original spec and no groups.
func (p *Plan) Fuse() (*FusedSpec, error) {
	groups := p.FusionGroups()
	fs := &FusedSpec{Spec: p.Spec, Groups: groups}
	if len(groups) == 0 {
		return fs, nil
	}
	inGroup := make(map[int]*FusionGroup)
	headOf := make(map[int]*FusionGroup)
	for gi := range groups {
		g := &groups[gi]
		headOf[g.Stages[0]] = g
		for _, idx := range g.Stages {
			inGroup[idx] = g
		}
	}
	fs.Spec.Stages = nil
	for i, n := range p.Nodes {
		g, fused := inGroup[i]
		if !fused {
			fs.Spec.Stages = append(fs.Spec.Stages, n.Stage)
			continue
		}
		if headOf[i] == nil {
			continue // interior/tail stage, absorbed by its chain head
		}
		parts := make([]sb.Component, len(g.Stages))
		for k, idx := range g.Stages {
			parts[k] = p.Nodes[idx].Component
		}
		comp, err := sb.NewFused(parts...)
		if err != nil {
			return nil, fmt.Errorf("workflow %q: fusing stages %v: %w", p.Spec.Name, g.Stages, err)
		}
		// The fused stage publishes only the chain's last output stream,
		// so the tail stage's queue depth is the one that still matters.
		tail := p.Nodes[g.Stages[len(g.Stages)-1]]
		fs.Spec.Stages = append(fs.Spec.Stages, Stage{
			Component:  comp.Name(),
			Procs:      g.Procs,
			QueueDepth: tail.Stage.QueueDepth,
			Instance:   comp,
		})
	}
	return fs, nil
}

// StageSubset is one stage cut out of the plan for isolated
// re-execution: the node plus the streams that cross the cut. An
// offline replay serves Inputs from a recording and captures Outputs —
// the rest of the workflow does not run at all, which is exactly why
// the cut streams must be known statically.
type StageSubset struct {
	Node *PlanNode
	// Inputs and Outputs are the node's ports in declaration order —
	// the subset's boundary with the recorded workflow.
	Inputs, Outputs []sb.Port
}

// StageSubset selects one stage of the plan by component name or by
// numeric stage index. A name matching several stages is ambiguous and
// the error says which indices match, so the caller can retry by
// index; an unknown name's error lists what the plan has.
func (p *Plan) StageSubset(sel string) (*StageSubset, error) {
	if idx, err := strconv.Atoi(sel); err == nil {
		if idx < 0 || idx >= len(p.Nodes) {
			return nil, fmt.Errorf("workflow %q has no stage %d (stages 0..%d)",
				p.Spec.Name, idx, len(p.Nodes)-1)
		}
		n := p.Nodes[idx]
		return &StageSubset{Node: n, Inputs: n.Ins, Outputs: n.Outs}, nil
	}
	var matches []*PlanNode
	for _, n := range p.Nodes {
		if n.Component.Name() == sel || n.Stage.Component == sel {
			matches = append(matches, n)
		}
	}
	switch len(matches) {
	case 1:
		n := matches[0]
		return &StageSubset{Node: n, Inputs: n.Ins, Outputs: n.Outs}, nil
	case 0:
		names := make([]string, len(p.Nodes))
		for i, n := range p.Nodes {
			names[i] = n.Component.Name()
		}
		return nil, fmt.Errorf("workflow %q has no stage %q (stages: %s)",
			p.Spec.Name, sel, strings.Join(names, ", "))
	default:
		idxs := make([]int, len(matches))
		for i, n := range matches {
			idxs[i] = n.Index
		}
		return nil, fmt.Errorf("workflow %q runs %d stages named %q (indices %s); select by index",
			p.Spec.Name, len(matches), sel, intList(idxs))
	}
}

// Explain renders the plan deterministically: stages with their ports,
// the derived dataflow edges, what the fusion pass would collapse, and
// any lint findings. This is the output of `sbrun -explain`, golden-
// tested per example workflow.
func (p *Plan) Explain() string {
	var b strings.Builder
	kind := p.Spec.Transport.Kind
	if kind == "" {
		kind = flexpath.KindInproc
	}
	if r := p.Spec.Transport.Resolve(); r.Kind != kind {
		kind = kind + " -> " + r.Kind // auto, shown with its resolution
	}
	fmt.Fprintf(&b, "plan %s: %d stages, transport %s\n", p.Spec.Name, len(p.Nodes), kind)
	if p.Spec.ReplayDir != "" {
		fmt.Fprintf(&b, "replay: recorded log %s\n", p.Spec.ReplayDir)
	}
	fmt.Fprintf(&b, "stages:\n")
	for _, n := range p.Nodes {
		fmt.Fprintf(&b, "  %-2d %-14s procs=%-3d", n.Index, n.Component.Name(), n.Stage.Procs)
		if n.Opaque {
			b.WriteString(" (opaque: declares no ports)")
		}
		for _, in := range n.Ins {
			fmt.Fprintf(&b, " in:%s", portLabel(in))
		}
		for _, out := range n.Outs {
			fmt.Fprintf(&b, " out:%s", portLabel(out))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "edges:\n")
	if len(p.Edges) == 0 {
		b.WriteString("  (none)\n")
	}
	for _, et := range p.EdgeTransports() {
		e := et.Edge
		from, to := p.Nodes[e.From], p.Nodes[e.To]
		arr := e.Array
		if arr == "" {
			arr = "?"
		}
		note := et.Placement
		if et.Override {
			note += ", override"
		}
		fmt.Fprintf(&b, "  %-14s %s x%d -> %s x%d  array=%s via %s (%s)\n",
			e.Stream, from.Name(), from.Stage.Procs, to.Name(), to.Stage.Procs,
			arr, et.Spec.Kind, note)
	}
	fmt.Fprintf(&b, "fusion:\n")
	groups := p.FusionGroups()
	if len(groups) == 0 {
		b.WriteString("  (no eligible chains)\n")
	}
	for _, g := range groups {
		fmt.Fprintf(&b, "  fuse stages %s as %s procs=%d (elides %s)\n",
			intList(g.Stages), strings.Join(g.Parts, "+"), g.Procs, strings.Join(g.Elided, ", "))
	}
	issues := p.Issues()
	fmt.Fprintf(&b, "lint:\n")
	if len(issues) == 0 {
		b.WriteString("  (clean)\n")
	}
	for _, issue := range issues {
		fmt.Fprintf(&b, "  %s\n", issue)
	}
	return b.String()
}

// portLabel renders "stream[array]" or just "stream" when the array is
// undeclared.
func portLabel(p sb.Port) string {
	if p.Array == "" {
		return p.Stream
	}
	return p.Stream + "[" + p.Array + "]"
}

// intList renders indices as "1,2,3".
func intList(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, ",")
}
