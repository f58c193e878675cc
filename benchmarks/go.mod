// The benchmark is a module of its own so the repository's tier-1
// `go build ./... && go test ./...` never builds or runs it. The module
// path nests under the root module's, which is what lets it import
// aiql/internal/... (Go's internal rule is by import path).
module aiql/benchmarks

go 1.24

require aiql v0.0.0

replace aiql => ../
