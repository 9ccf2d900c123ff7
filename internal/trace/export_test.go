package trace

// Internals the external test package (addrcolumn_test.go,
// lazy_test.go) checks directly: it imports the workload generators and
// the wire decoder, which import trace.
var (
	PackColumn = packColumn
	StrideLed  = strideLed
)

// StillPacked reports which of c's columns have not been unpacked yet.
func StillPacked(c *Columns) (addrs, pcs, meta bool) {
	return c.deferred[addrCol].enc != 0, c.deferred[pcCol].enc != 0, c.deferred[metaCol].enc != 0
}
