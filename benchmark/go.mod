module hivemind/benchmark

go 1.22

require hivemind v0.0.0

replace hivemind => ../
