package adios

import (
	"os"
	"path/filepath"
	"testing"
)

const sampleXML = `
<adios-config>
  <adios-group name="particles">
    <var name="nparticles" type="integer"/>
    <var name="nprops" type="integer"/>
    <var name="atoms" type="double" dimensions="nparticles,nprops"/>
    <attribute name="props" value="ID,Type,vx,vy,vz"/>
  </adios-group>
  <adios-group name="toroid">
    <var name="nslices" type="integer"/>
    <var name="npoints" type="integer"/>
    <var name="nquants" type="integer"/>
    <var name="grid" type="double" dimensions="nslices, npoints, nquants"/>
  </adios-group>
  <method group="particles" method="FLEXPATH" parameters="QUEUE_SIZE=4"/>
  <method group="toroid" method="FLEXPATH"/>
</adios-config>`

func TestParseConfig(t *testing.T) {
	cfg, err := ParseConfig([]byte(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Groups) != 2 || len(cfg.Methods) != 2 {
		t.Fatalf("groups=%d methods=%d", len(cfg.Groups), len(cfg.Methods))
	}
	g := cfg.Group("particles")
	if g == nil {
		t.Fatal("particles group missing")
	}
	atoms := g.Var("atoms")
	if atoms == nil || atoms.Type != "double" {
		t.Fatalf("atoms = %+v", atoms)
	}
	dims := atoms.DimNames()
	if len(dims) != 2 || dims[0] != "nparticles" || dims[1] != "nprops" {
		t.Fatalf("dims = %v", dims)
	}
	// Whitespace in dimension lists is trimmed.
	grid := cfg.Group("toroid").Var("grid")
	gd := grid.DimNames()
	if len(gd) != 3 || gd[1] != "npoints" {
		t.Fatalf("grid dims = %v", gd)
	}
	if cfg.Group("particles").StaticAttrs()["props"] != "ID,Type,vx,vy,vz" {
		t.Fatal("attribute missing")
	}
	m := cfg.Method("particles")
	if m == nil || m.Method != "FLEXPATH" || m.QueueDepth() != 4 {
		t.Fatalf("method = %+v", m)
	}
	if cfg.Method("toroid").QueueDepth() != 0 {
		t.Fatal("default queue depth should be 0")
	}
	if cfg.Group("nope") != nil || cfg.Method("nope") != nil {
		t.Fatal("lookup of missing group/method returned non-nil")
	}
	if cfg.Group("particles").Var("nope") != nil {
		t.Fatal("lookup of missing var returned non-nil")
	}
}

func TestParseConfigErrors(t *testing.T) {
	cases := map[string]string{
		"not xml":        `garbage`,
		"unnamed group":  `<adios-config><adios-group></adios-group></adios-config>`,
		"dup group":      `<adios-config><adios-group name="g"/><adios-group name="g"/></adios-config>`,
		"dup var":        `<adios-config><adios-group name="g"><var name="x"/><var name="x"/></adios-group></adios-config>`,
		"unnamed var":    `<adios-config><adios-group name="g"><var/></adios-group></adios-config>`,
		"undeclared dim": `<adios-config><adios-group name="g"><var name="a" dimensions="n"/></adios-group></adios-config>`,
		"unknown method": `<adios-config><adios-group name="g"/><method group="zzz" method="FLEXPATH"/></adios-config>`,
	}
	for name, doc := range cases {
		if _, err := ParseConfig([]byte(doc)); err == nil {
			t.Errorf("ParseConfig(%s) succeeded", name)
		}
	}
}

func TestLoadConfig(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "adios.xml")
	if err := os.WriteFile(path, []byte(sampleXML), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Group("toroid") == nil {
		t.Fatal("toroid group missing")
	}
	if _, err := LoadConfig(filepath.Join(dir, "missing.xml")); err == nil {
		t.Fatal("LoadConfig of missing file succeeded")
	}
}

func TestMethodParams(t *testing.T) {
	m := MethodDef{Parameters: "QUEUE_SIZE=8; VERBOSE ; K = V"}
	p := m.Params()
	if p["QUEUE_SIZE"] != "8" || p["K"] != "V" {
		t.Fatalf("params = %v", p)
	}
	if _, ok := p["VERBOSE"]; !ok {
		t.Fatalf("flag param missing: %v", p)
	}
	bad := MethodDef{Parameters: "QUEUE_SIZE=notanumber"}
	if bad.QueueDepth() != 0 {
		t.Fatal("unparseable queue size should fall back to 0")
	}
}

func TestEmbeddedGroupParsesOnce(t *testing.T) {
	g, depth, err := EmbeddedGroup(sampleXML, "particles", "atoms", "velocities")
	if err != nil {
		t.Fatal(err)
	}
	if depth != 4 || g.Var("velocities") == nil {
		t.Fatalf("depth %d, vars %+v", depth, g.Vars)
	}
	cached := embedded[sampleXML]
	if _, _, err := EmbeddedGroup(sampleXML, "particles", "atoms", "atoms"); err != nil {
		t.Fatal(err)
	}
	if embedded[sampleXML] != cached {
		t.Fatal("second call re-parsed the config")
	}
	if cached.cfg.Group("particles").Var("atoms") == nil {
		t.Fatal("rename reached the cached parse")
	}
	if _, _, err := EmbeddedGroup(sampleXML, "nope", "atoms", "x"); err == nil {
		t.Fatal("missing group accepted")
	}
	if _, _, err := EmbeddedGroup("<adios-config>", "particles", "atoms", "x"); err == nil {
		t.Fatal("malformed config accepted")
	}
}
