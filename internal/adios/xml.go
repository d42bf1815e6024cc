package adios

import (
	"encoding/xml"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"

	"repro/internal/ndarray"
)

// Config mirrors the ADIOS XML configuration file a simulation reads at
// run time (§IV: "ADIOS expects multi-dimensional arrays to be packed
// linearly, with the variables describing the dimensions specified in an
// XML configuration file"). A config declares named groups of variables
// and binds each group to a transport method.
//
// Example:
//
//	<adios-config>
//	  <adios-group name="particles">
//	    <var name="nparticles" type="integer"/>
//	    <var name="nprops" type="integer"/>
//	    <var name="atoms" type="double" dimensions="nparticles,nprops"/>
//	    <attribute name="props" value="ID,Type,vx,vy,vz"/>
//	  </adios-group>
//	  <method group="particles" method="FLEXPATH" parameters="QUEUE_SIZE=4"/>
//	</adios-config>
type Config struct {
	XMLName xml.Name    `xml:"adios-config"`
	Groups  []Group     `xml:"adios-group"`
	Methods []MethodDef `xml:"method"`
}

// Group declares a set of variables written together, with optional
// static attributes.
type Group struct {
	Name       string         `xml:"name,attr"`
	Vars       []VarDef       `xml:"var"`
	Attributes []AttributeDef `xml:"attribute"`
}

// VarDef declares a variable. Scalar variables (no dimensions) name the
// extents of array variables; array variables list their dimension
// variables in row-major order in Dimensions.
type VarDef struct {
	Name       string `xml:"name,attr"`
	Type       string `xml:"type,attr"`
	Dimensions string `xml:"dimensions,attr"`
}

// DimNames returns the declared dimension-variable names, outermost
// first, or nil for a scalar.
func (v VarDef) DimNames() []string {
	if strings.TrimSpace(v.Dimensions) == "" {
		return nil
	}
	parts := strings.Split(v.Dimensions, ",")
	out := make([]string, len(parts))
	for i, p := range parts {
		out[i] = strings.TrimSpace(p)
	}
	return out
}

// AttributeDef declares a static string attribute of a group.
type AttributeDef struct {
	Name  string `xml:"name,attr"`
	Value string `xml:"value,attr"`
}

// MethodDef binds a group to a transport method with optional
// KEY=VALUE;KEY=VALUE parameters.
type MethodDef struct {
	Group      string `xml:"group,attr"`
	Method     string `xml:"method,attr"`
	Parameters string `xml:"parameters,attr"`
}

// Params parses the method's parameter string into a map.
func (m MethodDef) Params() map[string]string {
	out := map[string]string{}
	for _, kv := range strings.Split(m.Parameters, ";") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, found := strings.Cut(kv, "=")
		if !found {
			out[strings.TrimSpace(k)] = ""
			continue
		}
		out[strings.TrimSpace(k)] = strings.TrimSpace(v)
	}
	return out
}

// QueueDepth returns the FLEXPATH QUEUE_SIZE parameter, or 0 (meaning
// the transport default) when unset or unparseable.
func (m MethodDef) QueueDepth() int {
	if s, ok := m.Params()["QUEUE_SIZE"]; ok {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 0
}

// ParseConfig parses an adios-config XML document.
func ParseConfig(data []byte) (*Config, error) {
	var c Config
	if err := xml.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("adios: parsing config: %w", err)
	}
	seen := map[string]bool{}
	for gi := range c.Groups {
		g := &c.Groups[gi]
		if g.Name == "" {
			return nil, fmt.Errorf("adios: config group %d has no name", gi)
		}
		if seen[g.Name] {
			return nil, fmt.Errorf("adios: duplicate group %q", g.Name)
		}
		seen[g.Name] = true
		declared := map[string]bool{}
		for _, v := range g.Vars {
			if v.Name == "" {
				return nil, fmt.Errorf("adios: group %q has a variable with no name", g.Name)
			}
			if declared[v.Name] {
				return nil, fmt.Errorf("adios: group %q declares variable %q twice", g.Name, v.Name)
			}
			declared[v.Name] = true
		}
		for _, v := range g.Vars {
			for _, dn := range v.DimNames() {
				if !declared[dn] {
					return nil, fmt.Errorf("adios: group %q variable %q references undeclared dimension %q",
						g.Name, v.Name, dn)
				}
			}
		}
	}
	for _, m := range c.Methods {
		if !seen[m.Group] {
			return nil, fmt.Errorf("adios: method binds unknown group %q", m.Group)
		}
	}
	return &c, nil
}

// LoadConfig reads and parses an adios-config XML file.
func LoadConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseConfig(data)
}

// embedded caches each embedded config text's parse, keyed by the text.
var (
	embeddedMu sync.Mutex
	embedded   = map[string]*parsedConfig{}
)

type parsedConfig struct {
	cfg *Config
	err error
}

// EmbeddedGroup returns the declaration of group from an instrumented
// simulation's embedded config text, with the variable from renamed to
// the run-time array name to, plus the method's queue depth. Each
// config text is parsed once; the declaration returned is a copy, so a
// rename never reaches the cached parse.
func EmbeddedGroup(xmlText, group, from, to string) (*Group, int, error) {
	embeddedMu.Lock()
	p, ok := embedded[xmlText]
	if !ok {
		p = &parsedConfig{}
		p.cfg, p.err = ParseConfig([]byte(xmlText))
		embedded[xmlText] = p
	}
	embeddedMu.Unlock()
	if p.err != nil {
		return nil, 0, fmt.Errorf("embedded config: %w", p.err)
	}
	g := p.cfg.Group(group)
	if g == nil {
		return nil, 0, fmt.Errorf("embedded config lacks group %q", group)
	}
	renamed := *g
	renamed.Vars = append([]VarDef(nil), g.Vars...)
	for i := range renamed.Vars {
		if renamed.Vars[i].Name == from {
			renamed.Vars[i].Name = to
		}
	}
	depth := 0
	if m := p.cfg.Method(group); m != nil {
		depth = m.QueueDepth()
	}
	return &renamed, depth, nil
}

// Group returns the named group, or nil.
func (c *Config) Group(name string) *Group {
	for i := range c.Groups {
		if c.Groups[i].Name == name {
			return &c.Groups[i]
		}
	}
	return nil
}

// Method returns the method binding for a group, or nil.
func (c *Config) Method(group string) *MethodDef {
	for i := range c.Methods {
		if c.Methods[i].Group == group {
			return &c.Methods[i]
		}
	}
	return nil
}

// Var returns the declaration of the named variable, or nil.
func (g *Group) Var(name string) *VarDef {
	for i := range g.Vars {
		if g.Vars[i].Name == name {
			return &g.Vars[i]
		}
	}
	return nil
}

// StaticAttrs returns the group's declared attributes as a map.
func (g *Group) StaticAttrs() map[string]string {
	out := make(map[string]string, len(g.Attributes))
	for _, a := range g.Attributes {
		out[a.Name] = a.Value
	}
	return out
}

// validate checks a runtime write against the group declaration: the
// variable must be declared as an array whose dimension names match the
// labels of the global dims being written, in order.
func (g *Group) validate(name string, globalDims []ndarray.Dim) error {
	def := g.Var(name)
	if def == nil {
		return fmt.Errorf("adios: variable %q not declared in group %q", name, g.Name)
	}
	dimNames := def.DimNames()
	if len(dimNames) == 0 {
		return fmt.Errorf("adios: variable %q is declared scalar in group %q but written as an array", name, g.Name)
	}
	if len(dimNames) != len(globalDims) {
		return fmt.Errorf("adios: variable %q declared with %d dimensions in group %q, written with %d",
			name, len(dimNames), g.Name, len(globalDims))
	}
	for i, dn := range dimNames {
		if globalDims[i].Name != dn {
			return fmt.Errorf("adios: variable %q dimension %d labeled %q, declaration says %q",
				name, i, globalDims[i].Name, dn)
		}
	}
	return nil
}
