package lammps

import (
	"testing"

	"repro/internal/adios"
)

func TestEmbeddedConfigParses(t *testing.T) {
	cfg, err := adios.ParseConfig([]byte(ConfigXML))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Group("particles") == nil {
		t.Fatal("group missing")
	}
	if m := cfg.Method("particles"); m == nil || m.QueueDepth() != 2 {
		t.Fatal("queue depth not declared")
	}
}

// The writer opens its group through adios.EmbeddedGroup with the
// array renamed to the configured name.
func TestWriterGroupRenamesArray(t *testing.T) {
	g, depth, err := adios.EmbeddedGroup(ConfigXML, "particles", "atoms", "mydata")
	if err != nil {
		t.Fatal(err)
	}
	if depth != 2 {
		t.Fatalf("depth = %d", depth)
	}
	if g.Var("mydata") == nil {
		t.Fatal("renamed variable missing")
	}
	if g.Var("atoms") != nil {
		t.Fatal("original variable name still present")
	}
	// The cached declaration is untouched (EmbeddedGroup copies).
	g2, _, err := adios.EmbeddedGroup(ConfigXML, "particles", "atoms", "atoms")
	if err != nil {
		t.Fatal(err)
	}
	if g2.Var("atoms") == nil {
		t.Fatal("second call polluted by first rename")
	}
}
