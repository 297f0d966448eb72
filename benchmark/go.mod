module filemig/benchmark

go 1.24

require filemig v0.0.0

replace filemig => ../
