// The benchmark is a module of its own so that it builds from its own
// build file; the replace directive points it at the simulator it
// measures, whose internal packages it may import because its module
// path sits under spasm/.
module spasm/bench

go 1.22

require spasm v0.0.0

replace spasm => ../
