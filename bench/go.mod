module github.com/elin-go/elin/bench

go 1.24

require github.com/elin-go/elin v0.0.0

replace github.com/elin-go/elin => ../
