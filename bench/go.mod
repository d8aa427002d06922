module demaq/bench

go 1.24

require demaq v0.0.0

replace demaq => ../
