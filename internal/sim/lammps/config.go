package lammps

// ConfigXML is the simulation's ADIOS configuration — the counterpart of
// the "approximately 25-line XML file" each instrumented simulation
// needs (§IV). It declares the dump's array variable, its dimension
// variables, and the static quantity header, and binds the group to the
// FLEXPATH method with a default queue size.
const ConfigXML = `
<adios-config>
  <adios-group name="particles">
    <var name="particles" type="integer"/>
    <var name="props" type="integer"/>
    <var name="atoms" type="double" dimensions="particles,props"/>
    <attribute name="header.props" value="ID,Type,vx,vy,vz"/>
  </adios-group>
  <method group="particles" method="FLEXPATH" parameters="QUEUE_SIZE=2"/>
</adios-config>`
