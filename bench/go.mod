// The repository benchmark is a module of its own so that the root module's
// `go build ./...` and `go test ./...` neither build nor depend on it. Its
// import path sits under repro/, which is what lets it import
// repro/internal/...; the replace points at the checkout it is run from.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
