module superfast/bench

go 1.22

require superfast v0.0.0

replace superfast => ../
