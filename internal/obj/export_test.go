package obj

import "lxr/internal/mem"

// End returns the address one past the last byte of the object.
func (m Model) End(ref Ref) mem.Address {
	return ref + mem.Address(m.Size(ref))
}
