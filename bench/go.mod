module autonetkit/bench

go 1.22

require autonetkit v0.0.0

replace autonetkit => ../
