module recordroute/benchmark

go 1.22

require recordroute v0.0.0

replace recordroute => ../
