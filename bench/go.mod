module griffin/bench

go 1.22

require griffin v0.0.0

replace griffin => ../
