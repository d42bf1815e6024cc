package gromacs

// ConfigXML is the simulation's ADIOS configuration (§IV): the
// two-dimensional coordinate variable, its dimension variables, the
// static coordinate header, and the FLEXPATH method binding.
const ConfigXML = `
<adios-config>
  <adios-group name="trajectory">
    <var name="atoms" type="integer"/>
    <var name="coords" type="integer"/>
    <var name="positions" type="double" dimensions="atoms,coords"/>
    <attribute name="header.coords" value="x,y,z"/>
  </adios-group>
  <method group="trajectory" method="FLEXPATH" parameters="QUEUE_SIZE=2"/>
</adios-config>`
