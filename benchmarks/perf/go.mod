module spatialkeyword/benchmarks/perf

go 1.22

require spatialkeyword v0.0.0

replace spatialkeyword => ../..
