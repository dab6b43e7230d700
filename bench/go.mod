module tsgraph/bench

go 1.22

require tsgraph v0.0.0

replace tsgraph => ../
