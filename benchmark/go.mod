module weipipe/benchmark

go 1.24

require weipipe v0.0.0

replace weipipe => ../
