module weihl83/bench

go 1.22

require weihl83 v0.0.0

replace weihl83 => ../
