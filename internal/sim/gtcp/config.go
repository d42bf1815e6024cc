package gtcp

// ConfigXML is the simulation's ADIOS configuration (§IV): the
// three-dimensional grid variable with its dimension variables, the
// static quantity header, and the FLEXPATH method binding.
const ConfigXML = `
<adios-config>
  <adios-group name="toroid">
    <var name="slices" type="integer"/>
    <var name="points" type="integer"/>
    <var name="quantities" type="integer"/>
    <var name="grid" type="double" dimensions="slices,points,quantities"/>
    <attribute name="header.quantities"
        value="density,temperature_par,temperature_perp,pressure_par,pressure_perp,energy_flux,potential"/>
  </adios-group>
  <method group="toroid" method="FLEXPATH" parameters="QUEUE_SIZE=2"/>
</adios-config>`
