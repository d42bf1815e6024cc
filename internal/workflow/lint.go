package workflow

// LintIssue is one wiring problem found in a spec.
type LintIssue struct {
	// Severity is "error" for wiring that cannot work (a subscribed
	// stream nobody publishes) and "warning" for suspicious but runnable
	// wiring (a published stream nobody consumes).
	Severity string
	Message  string
}

func (i LintIssue) String() string { return i.Severity + ": " + i.Message }

// Lint builds the workflow's plan (instantiating its components without
// running them) and cross-checks the dataflow graph before anything
// launches — the class of mistake the paper's launch scripts invite (a
// typo in one stream name wedges the whole job, since readers block
// forever waiting for a writer that never comes):
//
//   - every subscribed stream must have exactly one publishing stage;
//   - a published stream nobody subscribes to is flagged (the writer
//     will fill its queue and stall once the buffer is exhausted);
//   - two stages publishing the same stream is an error (a stream has
//     one writer group);
//   - self-loops (a stage consuming its own output) and longer dataflow
//     cycles are errors;
//   - a stage allocating more ranks than its input's producer is a
//     rank-mismatch warning.
//
// Stages whose components declare nothing (no sb.PortDeclarer) are
// skipped conservatively: streams they might touch
// are not reported at all. See Plan.Issues for the checks themselves —
// Lint is the thin spec-level entry point.
func Lint(spec Spec) ([]LintIssue, error) {
	plan, err := BuildPlan(spec)
	if err != nil {
		return nil, err
	}
	return plan.Issues(), nil
}
