module smartsock/benchmark

go 1.22

require smartsock v0.0.0

replace smartsock => ../
