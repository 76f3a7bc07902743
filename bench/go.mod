module github.com/systemds/systemds-go/bench

go 1.24

require github.com/systemds/systemds-go v0.0.0

replace github.com/systemds/systemds-go => ../
