module ccf/bench

go 1.22

require ccf v0.0.0

replace ccf => ../
