module cstrace/bench

go 1.24

require cstrace v0.0.0

replace cstrace => ../
