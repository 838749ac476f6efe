module lxr/bench

go 1.24

require lxr v0.0.0

replace lxr => ../
