package sim

// Machine is a program's handle onto its hardware context: the static
// machine description and the address helpers a program needs to lay
// out its working set. Operations do not go through the handle; a
// program issues them from Step.
type Machine struct {
	proc *Process
	geo  Geometry
}

// Geometry returns the static machine description.
func (m *Machine) Geometry() Geometry { return m.geo }

// PID returns the process's unique identifier.
func (m *Machine) PID() int { return m.proc.id }

// PrivateAddr maps a process-local line index to an address that no
// other process aliases (distinct tag space), while leaving the cache
// set index fully under the program's control via the low bits.
func (m *Machine) PrivateAddr(lineIndex uint64) uint64 {
	return (uint64(m.proc.id+1)<<44 | lineIndex) << 6
}

// L2AddrForSet builds an address mapping to the given L2 set, with way
// selecting distinct conflicting lines, in this process's private tag
// space. Covert-channel and workload code uses it to build eviction
// sets.
func (m *Machine) L2AddrForSet(set uint32, way int) uint64 {
	return m.proc.sys.l2.AddrForSet(set, way, uint64(m.proc.id+1))
}
