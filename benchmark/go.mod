module tara/benchmark

go 1.22

require tara v0.0.0

replace tara => ../
