package trace

// Internals the external test package (addrcolumn_test.go) checks
// directly: it imports the workload generators, which import trace.
var (
	PackColumn = packColumn
	StrideLed  = strideLed
)
