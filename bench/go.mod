module phideep/bench

go 1.22

require phideep v0.0.0

replace phideep => ../
