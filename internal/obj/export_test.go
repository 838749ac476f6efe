package obj

import "lxr/internal/mem"

// End returns the address one past the last byte of the object.
func (m Model) End(ref Ref) mem.Address {
	return ref + mem.Address(m.Size(ref))
}

// TypeID returns the application type id of the object at ref.
func (m Model) TypeID(ref Ref) uint8 {
	return uint8(m.A.Load(ref) >> 56)
}
